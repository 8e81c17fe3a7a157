(* Cycle-counting simulator for X86-lite native code. Executes compiled
   instruction arrays against the same simulated memory, runtime and
   exception model as the LLVA interpreter, so the two can be compared
   byte-for-byte. Supports translate-on-demand through a pluggable code
   lookup, which is how the LLEE execution manager drives it. *)

open Llva
open X86

type trap_kind =
  | Division_by_zero
  | Overflow (* signed INT_MIN / -1 division or remainder (#DE class) *)
  | Memory_fault of int64
  | Privilege_violation

exception Trap of trap_kind
exception Unwound
exception Out_of_fuel

type flags =
  | Fnone
  | Fint of int64 * int64 * bool (* a, b (normalized), signed compare *)
  | Ffloat of float * float

type frame = {
  fr_cf : Compile.cfunc;
  fr_ret_pc : int;
  fr_except : int option;
  fr_bp : int64;
  fr_sp : int64;
}

type state = {
  cmod : Compile.cmodule;
  mem : Vmem.Memory.t;
  rt : Vmem.Runtime.t;
  regs : int64 array;
  fregs : float array;
  mutable flags : flags;
  mutable frames : frame list;
  mutable cur : Compile.cfunc;
  mutable pc : int;
  mutable cycles : int64;
  mutable icount : int64;
  (* unboxed running counts behind [cycles]/[icount]; the step loop bumps
     these, and [run_until_empty] copies them out whenever it returns or
     raises *)
  mutable ncycles : int;
  mutable ninstrs : int;
  mutable fuel : int; (* instruction budget; < 0 = unlimited *)
  mutable trap_handler : string option;
  mutable privileged : bool;
  redirects : (string, string) Hashtbl.t; (* SMC redirections *)
  (* pluggable translate-on-demand (LLEE): returns native code for a
     function name; default looks in the compiled module *)
  mutable lookup : state -> string -> Compile.cfunc option;
  mutable translations : int; (* how many lookups missed the module cache *)
}

let default_lookup st name = Hashtbl.find_opt st.cmod.Compile.funcs name

let create ?(fuel = -1) (cmod : Compile.cmodule) : state =
  let mem = cmod.Compile.image.Vmem.Image.mem in
  let dummy =
    { Compile.cf_name = "<none>"; code = [||]; nargs = 0; frame_slots = 0 }
  in
  {
    cmod;
    mem;
    rt = Vmem.Runtime.create mem;
    regs = Array.make 8 0L;
    fregs = Array.make 8 0.0;
    flags = Fnone;
    frames = [];
    cur = dummy;
    pc = 0;
    cycles = 0L;
    icount = 0L;
    ncycles = 0;
    ninstrs = 0;
    fuel;
    trap_handler = None;
    privileged = false;
    redirects = Hashtbl.create 4;
    lookup = default_lookup;
    translations = 0;
  }

let output st = Vmem.Runtime.output st.rt

(* ---------- width/sign helpers ---------- *)

let ty_of_width w s =
  match (w, s) with
  | W8, true -> Types.Sbyte
  | W8, false -> Types.Ubyte
  | W16, true -> Types.Short
  | W16, false -> Types.Ushort
  | W32, true -> Types.Int
  | W32, false -> Types.Uint
  | W64, true -> Types.Long
  | W64, false -> Types.Ulong

let norm w s v = Ir.normalize_int (ty_of_width w s) v

(* ---------- operand access ---------- *)

let mem_addr st (m : mem) = Int64.add st.regs.(m.base) (Int64.of_int m.disp)

let read_op st = function
  | R r -> st.regs.(r)
  | I v -> v
  | M m -> Vmem.Memory.read_u64 st.mem (mem_addr st m)

let write_op st op v =
  match op with
  | R r -> st.regs.(r) <- v
  | M m -> Vmem.Memory.write_u64 st.mem (mem_addr st m) v
  | I _ -> invalid_arg "x86lite sim: write to immediate"

(* ---------- traps ---------- *)

let rec deliver_trap st kind : unit =
  (match st.trap_handler with
  | Some hname -> (
      st.trap_handler <- None;
      match st.lookup st hname with
      | Some hcf ->
          let num =
            match kind with
            | Division_by_zero -> 0L
            | Overflow -> 0L (* x86 #DE covers both divide faults *)
            | Memory_fault _ -> 1L
            | Privilege_violation -> 2L
          in
          run_subcall st hcf [ num; 0L ]
      | None -> ())
  | None -> ());
  raise (Trap kind)

(* Run a nested native call with integer arguments (used for the trap
   handler). Arguments are pushed per the calling convention. An unwind
   out of the handler stops at this boundary: the trap it serves still
   terminates the program. *)
and run_subcall st (cf : Compile.cfunc) (args : int64 list) =
  let n = List.length args in
  let saved_sp = st.regs.(sp) and saved_bp = st.regs.(bp) in
  let saved_frames = st.frames and saved_cur = st.cur and saved_pc = st.pc in
  st.regs.(sp) <- Int64.sub st.regs.(sp) (Int64.of_int (8 * n));
  List.iteri
    (fun k v ->
      Vmem.Memory.write_u64 st.mem
        (Int64.add st.regs.(sp) (Int64.of_int (8 * k)))
        v)
    args;
  (* simulated return-address push *)
  st.regs.(sp) <- Int64.sub st.regs.(sp) 8L;
  st.frames <- [];
  st.cur <- cf;
  st.pc <- 0;
  (try run_until_empty st with Unwound -> ());
  st.regs.(sp) <- saved_sp;
  st.regs.(bp) <- saved_bp;
  st.frames <- saved_frames;
  st.cur <- saved_cur;
  st.pc <- saved_pc

(* ---------- calls ---------- *)

and resolve_callee st (name : string) =
  let name =
    match Hashtbl.find_opt st.redirects name with Some r -> r | None -> name
  in
  match st.lookup st name with
  | Some cf -> `Native cf
  | None -> `External name

and addr_to_name st (addr : int64) =
  match Vmem.Image.func_at st.cmod.Compile.image addr with
  | Some f -> f.Ir.fname
  | None ->
      raise (Trap (Memory_fault addr))

(* read the k'th argument from the caller's argument area; at this point
   SP points at the simulated return address slot *)
and read_arg st k =
  Vmem.Memory.read_u64 st.mem
    (Int64.add st.regs.(sp) (Int64.of_int (8 + (8 * k))))

and external_call st name =
  (* runtime and intrinsic functions; args are on the stack *)
  if Llva.Intrinsics.is_intrinsic name then intrinsic_call st name
  else if Vmem.Runtime.is_known name then begin
    let sig_args =
      match name with
      | "malloc" | "print_int" | "print_long" | "print_char" | "print_str"
      | "free" | "exit" | "strlen" ->
          1
      | "print_float" -> 1
      | "print_nl" | "abort" -> 0
      | "memcpy" | "memset" -> 3
      | _ -> 0
    in
    let args =
      List.init sig_args (fun k ->
          let raw = read_arg st k in
          if name = "print_float" then Eval.F (Types.Double, Int64.float_of_bits raw)
          else Eval.I (Types.Long, raw))
    in
    match Vmem.Runtime.call st.rt name args with
    | Eval.I (_, v) -> st.regs.(ax) <- v
    | Eval.P a -> st.regs.(ax) <- a
    | Eval.B b -> st.regs.(ax) <- (if b then 1L else 0L)
    | Eval.F (_, f) -> st.fregs.(0) <- f
    | Eval.Undef _ -> ()
  end
  else invalid_arg ("x86lite sim: undefined external " ^ name)

and intrinsic_call st name =
  match name with
  | "llva.trap.register" ->
      let addr = read_arg st 0 in
      st.trap_handler <- Some (addr_to_name st addr)
  | "llva.smc.replace" ->
      let from_n = addr_to_name st (read_arg st 0) in
      let to_n = addr_to_name st (read_arg st 1) in
      Hashtbl.replace st.redirects from_n to_n
  | "llva.stack.depth" ->
      st.regs.(ax) <- Int64.of_int (List.length st.frames)
  | "llva.priv.set" -> st.privileged <- not (Int64.equal (read_arg st 0) 0L)
  | other when Llva.Intrinsics.is_privileged other ->
      if not st.privileged then begin
        deliver_trap st Privilege_violation;
        assert false
      end
  | _ -> invalid_arg ("x86lite sim: unknown intrinsic " ^ name)

(* ---------- the main step loop ---------- *)

and cc_holds st cc =
  match st.flags with
  | Fnone -> invalid_arg "x86lite sim: branch without flags"
  | Fint (a, b, _) -> (
      let sc = Int64.compare a b in
      let uc = Int64.unsigned_compare a b in
      match cc with
      | Eq -> sc = 0
      | Ne -> sc <> 0
      | Lt -> sc < 0
      | Gt -> sc > 0
      | Le -> sc <= 0
      | Ge -> sc >= 0
      | Ltu -> uc < 0
      | Gtu -> uc > 0
      | Leu -> uc <= 0
      | Geu -> uc >= 0)
  | Ffloat (a, b) ->
      (* IEEE-754 unordered: NaN makes every relation except Ne false *)
      if Float.is_nan a || Float.is_nan b then cc = Ne
      else (
        let c = Float.compare a b in
        match cc with
        | Eq -> c = 0
        | Ne -> c <> 0
        | Lt | Ltu -> c < 0
        | Gt | Gtu -> c > 0
        | Le | Leu -> c <= 0
        | Ge | Geu -> c >= 0)

and do_call st ~target ~except ~ret_pc =
  match target with
  | `Native cf ->
      st.frames <-
        {
          fr_cf = st.cur;
          fr_ret_pc = ret_pc;
          fr_except = except;
          fr_bp = st.regs.(bp);
          fr_sp = st.regs.(sp);
        }
        :: st.frames;
      if List.length st.frames > 50_000 then
        invalid_arg "x86lite sim: call stack overflow";
      (* simulated return-address push *)
      st.regs.(sp) <- Int64.sub st.regs.(sp) 8L;
      st.cur <- cf;
      st.pc <- 0
  | `External name ->
      (* externals execute "inline": SP unchanged around them except the
         simulated return-address push/pop *)
      st.regs.(sp) <- Int64.sub st.regs.(sp) 8L;
      external_call st name;
      st.regs.(sp) <- Int64.add st.regs.(sp) 8L;
      st.pc <- ret_pc

and step st =
  let i = st.cur.Compile.code.(st.pc) in
  let n = st.ninstrs + 1 in
  st.ninstrs <- n;
  st.ncycles <- st.ncycles + cycles_of i;
  if st.fuel >= 0 && n > st.fuel then raise Out_of_fuel;
  let next = st.pc + 1 in
  st.pc <- next;
  match i with
  | Mov (dst, src) -> write_op st dst (read_op st src)
  | Alu (op, w, s, dst, src) ->
      let ty = ty_of_width w s in
      let a = read_op st dst and b = read_op st src in
      let r =
        match op with
        | Add -> Int64.add a b
        | Sub -> Int64.sub a b
        | Imul -> Int64.mul a b
        | And -> Int64.logand a b
        | Or -> Int64.logor a b
        | Xor -> Int64.logxor a b
      in
      write_op st dst (Ir.normalize_int ty r)
  | Div (w, s, dst, src) | Rem (w, s, dst, src) -> (
      let ty = ty_of_width w s in
      let a = read_op st dst and b = read_op st src in
      let op = match i with Div _ -> Ir.Div | _ -> Ir.Rem in
      match Eval.int_binop op ty a b with
      | Eval.I (_, v) -> write_op st dst v
      | _ -> ()
      | exception Eval.Division_by_zero ->
          deliver_trap st Division_by_zero
      | exception Eval.Overflow -> deliver_trap st Overflow)
  | Shift (left, w, s, dst, src) ->
      let ty = ty_of_width w s in
      let a = read_op st dst and b = read_op st src in
      let op = if left then Ir.Shl else Ir.Shr in
      (match Eval.int_binop op ty a b with
      | Eval.I (_, v) -> write_op st dst v
      | _ -> ())
  | Ext (r, w, s) -> st.regs.(r) <- norm w s st.regs.(r)
  | Mload (r, m, w, s) -> (
      let addr = mem_addr st m in
      if Int64.equal addr 0L then deliver_trap st (Memory_fault 0L);
      match Vmem.Memory.read_uint st.mem addr (width_bytes w) with
      | raw -> st.regs.(r) <- norm w s raw
      | exception Vmem.Memory.Fault a -> deliver_trap st (Memory_fault a))
  | Mstore (m, r, w) -> (
      let addr = mem_addr st m in
      if Int64.equal addr 0L then deliver_trap st (Memory_fault 0L);
      match Vmem.Memory.write_uint st.mem addr (width_bytes w) st.regs.(r) with
      | () -> ()
      | exception Vmem.Memory.Fault a -> deliver_trap st (Memory_fault a))
  | Cmp (w, s, a, b) ->
      st.flags <- Fint (norm w s (read_op st a), norm w s (read_op st b), s)
  | Setcc (cc, r) -> st.regs.(r) <- (if cc_holds st cc then 1L else 0L)
  | Jcc (cc, l) -> if cc_holds st cc then st.pc <- l
  | Jmp l -> st.pc <- l
  | Lea (r, m) -> st.regs.(r) <- mem_addr st m
  | Push op ->
      st.regs.(sp) <- Int64.sub st.regs.(sp) 8L;
      Vmem.Memory.write_u64 st.mem st.regs.(sp) (read_op st op)
  | Pop r ->
      st.regs.(r) <- Vmem.Memory.read_u64 st.mem st.regs.(sp);
      st.regs.(sp) <- Int64.add st.regs.(sp) 8L
  | CallSym name -> do_call st ~target:(resolve_callee st name) ~except:None ~ret_pc:next
  | CallSymI (name, l) ->
      do_call st ~target:(resolve_callee st name) ~except:(Some l) ~ret_pc:next
  | CallInd op ->
      let name = addr_to_name st (read_op st op) in
      do_call st ~target:(resolve_callee st name) ~except:None ~ret_pc:next
  | CallIndI (op, l) ->
      let name = addr_to_name st (read_op st op) in
      do_call st ~target:(resolve_callee st name) ~except:(Some l) ~ret_pc:next
  | Ret -> (
      (* pop the simulated return address *)
      st.regs.(sp) <- Int64.add st.regs.(sp) 8L;
      match st.frames with
      | [] -> raise Exit (* top-level return: caught by run_until_empty *)
      | f :: rest ->
          st.frames <- rest;
          st.cur <- f.fr_cf;
          st.pc <- f.fr_ret_pc)
  | Unwind ->
      (* walk the frame stack to the nearest invoke handler *)
      let rec unwind frames =
        match frames with
        | [] -> raise Unwound
        | f :: rest -> (
            match f.fr_except with
            | Some handler ->
                st.frames <- rest;
                st.cur <- f.fr_cf;
                st.pc <- handler;
                st.regs.(bp) <- f.fr_bp;
                st.regs.(sp) <- f.fr_sp
            | None -> unwind rest)
      in
      unwind st.frames
  | AddSp n -> st.regs.(sp) <- Int64.add st.regs.(sp) (Int64.of_int n)
  | SubSpDyn (d, s) ->
      st.regs.(sp) <- Int64.sub st.regs.(sp) st.regs.(s);
      st.regs.(d) <- st.regs.(sp)
  | Fmov (a, b) -> st.fregs.(a) <- st.fregs.(b)
  | Fconst (f, v) -> st.fregs.(f) <- v
  | Falu (op, single, a, b) ->
      let x = st.fregs.(a) and y = st.fregs.(b) in
      let r =
        match op with
        | Fadd -> x +. y
        | Fsub -> x -. y
        | Fmul -> x *. y
        | Fdiv -> x /. y
        | Frem -> Float.rem x y
      in
      st.fregs.(a) <-
        (if single then Eval.round_float Types.Float r else r)
  | Fload (f, m, single) -> (
      let addr = mem_addr st m in
      if Int64.equal addr 0L then deliver_trap st (Memory_fault 0L);
      match
        if single then Vmem.Memory.read_uint st.mem addr 4
        else Vmem.Memory.read_u64 st.mem addr
      with
      | raw ->
          st.fregs.(f) <-
            (if single then Int32.float_of_bits (Int64.to_int32 raw)
             else Int64.float_of_bits raw)
      | exception Vmem.Memory.Fault a -> deliver_trap st (Memory_fault a))
  | Fstore (m, f, single) -> (
      let addr = mem_addr st m in
      if Int64.equal addr 0L then deliver_trap st (Memory_fault 0L);
      let v = st.fregs.(f) in
      match
        if single then
          Vmem.Memory.write_uint st.mem addr 4
            (Int64.of_int32 (Int32.bits_of_float v))
        else Vmem.Memory.write_u64 st.mem addr (Int64.bits_of_float v)
      with
      | () -> ()
      | exception Vmem.Memory.Fault a -> deliver_trap st (Memory_fault a))
  | Fcmp (a, b) -> st.flags <- Ffloat (st.fregs.(a), st.fregs.(b))
  | Cvtif (f, r, signed) ->
      let v = st.regs.(r) in
      st.fregs.(f) <-
        (if signed then Int64.to_float v
         else if Int64.compare v 0L >= 0 then Int64.to_float v
         else Int64.to_float v +. 18446744073709551616.0)
  | Cvtfi (r, f, w, s) ->
      let x = st.fregs.(f) in
      let x = if Float.is_nan x then 0.0 else x in
      st.regs.(r) <- norm w s (Int64.of_float x)
  | Fround f -> st.fregs.(f) <- Eval.round_float Types.Float st.fregs.(f)
  | Fpushret f -> st.fregs.(0) <- st.fregs.(f)
  | Trap msg -> invalid_arg ("x86lite sim: trap " ^ msg)

and run_until_empty st =
  Fun.protect
    ~finally:(fun () ->
      st.cycles <- Int64.of_int st.ncycles;
      st.icount <- Int64.of_int st.ninstrs)
    (fun () ->
      try
        while true do
          step st
        done
      with Exit -> ())

(* ---------- entry points ---------- *)

let call_function st name (int_args : int64 list) : int64 =
  match resolve_callee st name with
  | `External _ -> invalid_arg ("x86lite sim: cannot start in external " ^ name)
  | `Native cf ->
      let n = List.length int_args in
      st.regs.(sp) <- Int64.sub st.regs.(sp) (Int64.of_int (8 * n));
      List.iteri
        (fun k v ->
          Vmem.Memory.write_u64 st.mem
            (Int64.add st.regs.(sp) (Int64.of_int (8 * k)))
            v)
        int_args;
      st.regs.(sp) <- Int64.sub st.regs.(sp) 8L;
      st.frames <- [];
      st.cur <- cf;
      st.pc <- 0;
      run_until_empty st;
      st.regs.(ax)

let run_main ?fuel (cmod : Compile.cmodule) =
  let st = create ?fuel:(Option.map (fun f -> f) fuel) cmod in
  st.regs.(sp) <- Vmem.Memory.stack_top;
  st.regs.(bp) <- Vmem.Memory.stack_top;
  let code =
    match call_function st "main" [] with
    | v -> Int64.to_int (Ir.normalize_int Types.Int v)
    | exception Vmem.Runtime.Exit_called c -> c
  in
  (code, st)
