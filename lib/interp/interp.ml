(* Reference interpreter for the LLVA V-ISA.

   This is the semantic baseline of the whole system: the machine back-ends
   are differentially tested against it. It implements the paper's precise
   exception model (§3.3) — an instruction whose ExceptionsEnabled bit is
   false has its exceptions *ignored* (the result becomes undef); enabled
   exceptions are delivered either to a registered trap handler or to the
   caller as [Trap] — the §3.4 self-modification rule (replacement affects
   only future invocations), and the §3.5 OS-support mechanisms (intrinsic
   functions and the privileged bit). *)

open Llva

type trap_kind =
  | Division_by_zero
  | Overflow (* signed INT_MIN / -1 division or remainder *)
  | Memory_fault of int64
  | Privilege_violation

exception Trap of trap_kind
exception Unwound (* an unwind with no enclosing invoke *)
exception Out_of_fuel

let trap_number = function
  | Division_by_zero -> 0
  | Overflow -> 0 (* x86 #DE covers both divide faults *)
  | Memory_fault _ -> 1
  | Privilege_violation -> 2

let trap_to_string = function
  | Division_by_zero -> "division by zero"
  | Overflow -> "division overflow"
  | Memory_fault a -> Printf.sprintf "memory fault at 0x%Lx" a
  | Privilege_violation -> "privilege violation"

(* Raised internally by the unwind instruction; caught by invoke. *)
exception Unwinding

type stats = {
  mutable steps : int; (* dynamic LLVA instructions *)
  by_opcode : int array; (* indexed by Ir.opcode_code *)
  mutable calls : int;
  mutable max_depth : int;
}

type state = {
  m : Ir.modl;
  img : Vmem.Image.t;
  mem : Vmem.Memory.t;
  rt : Vmem.Runtime.t;
  env : Types.env;
  layout : Vmem.Layout.t;
  mutable stack : int64;
  mutable depth : int;
  mutable fuel : int; (* < 0 means unlimited *)
  (* the function currently executing; on a trap that escapes to the
     caller it names the frame the trap fired in (best-effort) *)
  mutable current : string;
  mutable trap_handler : Ir.func option;
  mutable privileged : bool;
  (* §3.4 SMC: future invocations of key go to the replacement *)
  redirects : (string, Ir.func) Hashtbl.t;
  (* invalidation callbacks; LLEE hooks these to drop cached native code *)
  mutable on_smc : (Ir.func -> unit) list;
  (* profiling hook: called on every taken CFG edge (src, dst) *)
  mutable on_edge : (Ir.block -> Ir.block -> unit) option;
  stats : stats;
}

let create ?(fuel = -1) (m : Ir.modl) : state =
  let img = Vmem.Image.load m in
  let mem = img.Vmem.Image.mem in
  {
    m;
    img;
    mem;
    rt = Vmem.Runtime.create mem;
    env = Ir.type_env m;
    layout = img.Vmem.Image.layout;
    stack = Vmem.Memory.stack_top;
    depth = 0;
    fuel;
    current = "main";
    trap_handler = None;
    privileged = false;
    redirects = Hashtbl.create 8;
    on_smc = [];
    on_edge = None;
    stats = { steps = 0; by_opcode = Array.make 29 0; calls = 0; max_depth = 0 };
  }

let output st = Vmem.Runtime.output st.rt

(* ---------- frames ---------- *)

type frame = {
  regs : (int, Eval.scalar) Hashtbl.t;
  fargs : (int, Eval.scalar) Hashtbl.t;
  saved_stack : int64;
}

let scalar_of_const st (c : Ir.const) : Eval.scalar =
  match c.Ir.ckind with
  | Ir.Cbool b -> Eval.B b
  | Ir.Cint v -> Eval.I (c.Ir.cty, v)
  | Ir.Cfloat v -> Eval.F (c.Ir.cty, Eval.round_float c.Ir.cty v)
  | Ir.Cnull -> Eval.P 0L
  | Ir.Czero -> (
      match Types.resolve st.env c.Ir.cty with
      | Types.Bool -> Eval.B false
      | t when Types.is_integer t -> Eval.I (t, 0L)
      | t when Types.is_fp t -> Eval.F (t, 0.0)
      | Types.Pointer _ -> Eval.P 0L
      | _ -> invalid_arg "Interp: aggregate zero in register context")
  | Ir.Cglobal_ref name -> (
      match Vmem.Image.symbol_address st.img name with
      | Some a -> Eval.P a
      | None -> invalid_arg ("Interp: unresolved symbol " ^ name))
  | Ir.Carray _ | Ir.Cstruct _ | Ir.Cstring _ ->
      invalid_arg "Interp: aggregate constant in register context"

let value st frame (v : Ir.value) : Eval.scalar =
  match v with
  | Ir.Const c -> scalar_of_const st c
  | Ir.Vreg i -> (
      match Hashtbl.find_opt frame.regs i.Ir.iid with
      | Some s -> s
      | None -> Eval.Undef i.Ir.ity)
  | Ir.Varg a -> (
      match Hashtbl.find_opt frame.fargs a.Ir.aid with
      | Some s -> s
      | None -> Eval.Undef a.Ir.aty)
  | Ir.Vglobal g -> (
      match Vmem.Image.symbol_address st.img g.Ir.gname with
      | Some a -> Eval.P a
      | None -> invalid_arg ("Interp: global without address: " ^ g.Ir.gname))
  | Ir.Vfunc f -> (
      match Hashtbl.find_opt st.img.Vmem.Image.func_addrs f.Ir.fname with
      | Some a -> Eval.P a
      | None -> invalid_arg ("Interp: function without address: " ^ f.Ir.fname))
  | Ir.Vblock _ -> invalid_arg "Interp: label used as a value"
  | Ir.Vundef ty -> Eval.Undef ty

(* ---------- trap delivery ---------- *)

(* Always raises; declared as returning unit so call sites follow it with
   their own (unreachable) result expression. *)
let rec deliver_trap st kind : unit =
  match st.trap_handler with
  | Some handler ->
      (* Run the handler (an ordinary LLVA function, per §3.5) with the
         trap number and a null info pointer, then terminate via Trap. An
         unwind out of the handler ends the handler, not the trap: it must
         not reach an invoke in the interrupted program. *)
      st.trap_handler <- None (* avoid recursive trap loops *);
      let interrupted = st.current in
      (try
         ignore
           (call_function st handler
              [ Eval.I (Types.Uint, Int64.of_int (trap_number kind)); Eval.P 0L ])
       with Unwinding -> st.current <- interrupted);
      raise (Trap kind)
  | None -> raise (Trap kind)

(* ---------- instruction execution ---------- *)

and exec_call st callee_addr args =
  match Vmem.Image.func_at st.img callee_addr with
  | Some f -> call_function st f args
  | None -> invalid_arg (Printf.sprintf "Interp: call to non-function 0x%Lx" callee_addr)

and call_external st (f : Ir.func) args =
  let name = f.Ir.fname in
  if Intrinsics.is_intrinsic name then call_intrinsic st name args
  else if Vmem.Runtime.is_known name then Vmem.Runtime.call st.rt name args
  else invalid_arg ("Interp: call to undefined external " ^ name)

and call_intrinsic st name args =
  match (name, args) with
  | "llva.trap.register", [ p ] ->
      (match Vmem.Image.func_at st.img (Eval.to_int64 p) with
      | Some h -> st.trap_handler <- Some h
      | None -> invalid_arg "llva.trap.register: not a function pointer");
      Eval.Undef Types.Void
  | "llva.smc.replace", [ from_p; to_p ] -> (
      (* §3.4: redirect *future* invocations of [from] to [to]. *)
      match
        ( Vmem.Image.func_at st.img (Eval.to_int64 from_p),
          Vmem.Image.func_at st.img (Eval.to_int64 to_p) )
      with
      | Some from_f, Some to_f ->
          Hashtbl.replace st.redirects from_f.Ir.fname to_f;
          List.iter (fun hook -> hook from_f) st.on_smc;
          Eval.Undef Types.Void
      | _ -> invalid_arg "llva.smc.replace: operands must be function pointers")
  | "llva.stack.depth", [] -> Eval.I (Types.Uint, Int64.of_int st.depth)
  | "llva.priv.set", [ b ] ->
      st.privileged <- Eval.to_bool b;
      Eval.Undef Types.Void
  | other, _ when Intrinsics.is_privileged other ->
      (* privileged kernel intrinsics: trap unless the privileged bit is
         set (§3.5); the operations themselves are no-op stubs here *)
      if not st.privileged then begin
        deliver_trap st Privilege_violation;
        assert false
      end
      else Eval.Undef Types.Void
  | _ -> invalid_arg ("Interp: unknown intrinsic " ^ name)

and call_function st (f : Ir.func) args : Eval.scalar =
  let f =
    match Hashtbl.find_opt st.redirects f.Ir.fname with
    | Some replacement -> replacement
    | None -> f
  in
  if Ir.is_declaration f then call_external st f args
  else begin
    st.stats.calls <- st.stats.calls + 1;
    st.depth <- st.depth + 1;
    if st.depth > st.stats.max_depth then st.stats.max_depth <- st.depth;
    if st.depth > 100_000 then invalid_arg "Interp: call depth exceeded";
    let frame =
      { regs = Hashtbl.create 64; fargs = Hashtbl.create 8; saved_stack = st.stack }
    in
    (try
       List.iteri
         (fun k (a : Ir.arg) ->
           match List.nth_opt args k with
           | Some v -> Hashtbl.replace frame.fargs a.Ir.aid v
           | None -> ())
         f.Ir.fargs
     with Invalid_argument _ -> ());
    let prev = st.current in
    st.current <- f.Ir.fname;
    let finish result =
      st.stack <- frame.saved_stack;
      st.depth <- st.depth - 1;
      st.current <- prev;
      result
    in
    try finish (exec_block st frame (Ir.entry_block f) None)
    with e ->
      (* deliberately do not restore [current]: a propagating trap keeps
         the name of the innermost function it fired in *)
      st.stack <- frame.saved_stack;
      st.depth <- st.depth - 1;
      raise e

  end

(* Execute from [block] (having arrived from [pred]) until a return. *)
and exec_block st frame (block : Ir.block) (pred : Ir.block option) : Eval.scalar =
  (* phis first, evaluated simultaneously *)
  let phis = Ir.block_phis block in
  (match (phis, pred) with
  | [], _ -> ()
  | _, None -> invalid_arg "Interp: phi in entry block"
  | _, Some p ->
      let values =
        List.map
          (fun phi ->
            match Ir.phi_value_for_block phi p with
            | Some v -> (phi, value st frame v)
            | None ->
                invalid_arg
                  (Printf.sprintf "Interp: phi %%%s missing edge from %%%s"
                     phi.Ir.iname p.Ir.bname))
          phis
      in
      List.iter (fun (phi, v) -> Hashtbl.replace frame.regs phi.Ir.iid v) values);
  let rec run = function
    | [] -> invalid_arg "Interp: block fell through without terminator"
    | (i : Ir.instr) :: rest -> (
        if i.Ir.op = Ir.Phi then run rest
        else begin
          st.stats.steps <- st.stats.steps + 1;
          st.stats.by_opcode.(Ir.opcode_code i.Ir.op) <-
            st.stats.by_opcode.(Ir.opcode_code i.Ir.op) + 1;
          if st.fuel >= 0 && st.stats.steps > st.fuel then raise Out_of_fuel;
          match exec_instr st frame i with
          | `Continue -> run rest
          | `Branch next ->
              (match st.on_edge with
              | Some hook -> hook block next
              | None -> ());
              exec_block st frame next (Some block)
          | `Return v -> v
        end)
  in
  run block.Ir.instrs

and exec_instr st frame (i : Ir.instr) =
  let v k = value st frame i.Ir.operands.(k) in
  let set s =
    Hashtbl.replace frame.regs i.Ir.iid s;
    `Continue
  in
  (* run [f]; on an exception condition, honour ExceptionsEnabled *)
  let guarded f ~(ignored : unit -> [ `Continue | `Branch of Ir.block | `Return of Eval.scalar ]) =
    try f () with
    | Eval.Division_by_zero ->
        if i.Ir.exceptions_enabled then begin
          deliver_trap st Division_by_zero;
          assert false
        end
        else ignored ()
    | Eval.Overflow ->
        if i.Ir.exceptions_enabled then begin
          deliver_trap st Overflow;
          assert false
        end
        else ignored ()
    | Vmem.Memory.Fault addr ->
        if i.Ir.exceptions_enabled then begin
          deliver_trap st (Memory_fault addr);
          assert false
        end
        else ignored ()
  in
  match i.Ir.op with
  | Ir.Binop op ->
      guarded
        (fun () -> set (Eval.binop op (v 0) (v 1)))
        ~ignored:(fun () -> set (Eval.Undef i.Ir.ity))
  | Ir.Setcc c ->
      set (Eval.compare_scalars (Ir.type_of_value i.Ir.operands.(0)) c (v 0) (v 1))
  | Ir.Ret ->
      if Array.length i.Ir.operands = 0 then `Return (Eval.Undef Types.Void)
      else `Return (v 0)
  | Ir.Br ->
      if Array.length i.Ir.operands = 1 then
        `Branch (Ir.block_of_value i.Ir.operands.(0))
      else if Eval.to_bool (v 0) then `Branch (Ir.block_of_value i.Ir.operands.(1))
      else `Branch (Ir.block_of_value i.Ir.operands.(2))
  | Ir.Mbr ->
      let sel = Eval.to_int64 (v 0) in
      let rec find k =
        if k + 1 >= Array.length i.Ir.operands then
          Ir.block_of_value i.Ir.operands.(1)
        else
          match i.Ir.operands.(k) with
          | Ir.Const { ckind = Ir.Cint c; _ } when Int64.equal c sel ->
              Ir.block_of_value i.Ir.operands.(k + 1)
          | _ -> find (k + 2)
      in
      `Branch (find 2)
  | Ir.Unwind -> raise Unwinding
  | Ir.Invoke -> (
      let callee = Eval.to_int64 (v 0) in
      let args =
        List.init
          (Array.length i.Ir.operands - 3)
          (fun k -> value st frame i.Ir.operands.(k + 3))
      in
      match exec_call st callee args with
      | result ->
          Hashtbl.replace frame.regs i.Ir.iid result;
          `Branch (Ir.block_of_value i.Ir.operands.(1))
      | exception Unwinding -> `Branch (Ir.block_of_value i.Ir.operands.(2)))
  | Ir.Call ->
      let callee = Eval.to_int64 (v 0) in
      let args =
        List.init
          (Array.length i.Ir.operands - 1)
          (fun k -> value st frame i.Ir.operands.(k + 1))
      in
      let result = exec_call st callee args in
      if Types.equal i.Ir.ity Types.Void then `Continue else set result
  | Ir.Load ->
      guarded
        (fun () ->
          let addr = Eval.to_int64 (v 0) in
          if Int64.equal addr 0L then raise (Vmem.Memory.Fault 0L);
          set
            (Vmem.Memory.read_scalar st.mem
               (Types.resolve st.env i.Ir.ity)
               addr))
        ~ignored:(fun () -> set (Eval.Undef i.Ir.ity))
  | Ir.Store ->
      guarded
        (fun () ->
          let addr = Eval.to_int64 (v 1) in
          if Int64.equal addr 0L then raise (Vmem.Memory.Fault 0L);
          let ty =
            Types.resolve st.env (Ir.type_of_value i.Ir.operands.(0))
          in
          Vmem.Memory.write_scalar st.mem ty addr (v 0);
          `Continue)
        ~ignored:(fun () -> `Continue)
  | Ir.Getelementptr ->
      let ptr = Eval.to_int64 (v 0) in
      let indexes =
        List.init
          (Array.length i.Ir.operands - 1)
          (fun k ->
            let op = i.Ir.operands.(k + 1) in
            (Ir.type_of_value op, Eval.to_int64 (value st frame op)))
      in
      let off, _ =
        Vmem.Layout.gep_offset st.layout
          (Ir.type_of_value i.Ir.operands.(0))
          indexes
      in
      set
        (Eval.P
           (Eval.mask_pointer st.m.Ir.target (Int64.add ptr (Int64.of_int off))))
  | Ir.Alloca ->
      let count =
        if Array.length i.Ir.operands = 0 then 1
        else Int64.to_int (Eval.to_int64 (v 0))
      in
      let elem = Types.pointee st.env i.Ir.ity in
      let size = max 1 (count * Vmem.Layout.size_of st.layout elem) in
      let align = Vmem.Layout.align_of st.layout elem in
      let sp = Int64.sub st.stack (Int64.of_int size) in
      let sp = Int64.mul (Int64.div sp (Int64.of_int align)) (Int64.of_int align) in
      if Int64.compare sp Vmem.Memory.heap_base < 0 then begin
        deliver_trap st (Memory_fault sp);
        assert false
      end
      else begin
        st.stack <- sp;
        set (Eval.P sp)
      end
  | Ir.Cast ->
      let src_ty = Types.resolve st.env (Ir.type_of_value i.Ir.operands.(0)) in
      let dst_ty = Types.resolve st.env i.Ir.ity in
      let result = Eval.cast ~src_ty ~dst_ty (v 0) in
      let result =
        match result with
        | Eval.P a -> Eval.P (Eval.mask_pointer st.m.Ir.target a)
        | r -> r
      in
      set result
  | Ir.Phi -> `Continue (* handled on block entry *)

(* ---------- entry points ---------- *)

let run_function st name args =
  match Ir.find_func st.m name with
  | Some f -> call_function st f args
  | None -> invalid_arg ("Interp: no such function: " ^ name)

(* Run %main; returns the program's exit code. *)
let run_main st =
  match run_function st "main" [] with
  | v -> (
      match v with
      | Eval.I (_, code) -> Int64.to_int code
      | _ -> 0)
  | exception Vmem.Runtime.Exit_called code -> code
  | exception Unwinding -> raise Unwound
