(* Cycle-counting simulator for SPARC-lite native code; the RISC
   counterpart of [X86lite.Sim], sharing the memory, runtime, exception
   and SMC model. *)

open Llva
open Sparc

type trap_kind =
  | Division_by_zero
  | Overflow (* signed INT_MIN / -1 division or remainder *)
  | Memory_fault of int64
  | Privilege_violation

exception Trap of trap_kind
exception Unwound
exception Out_of_fuel

type flags = Fnone | Fint of int64 * int64 | Ffloat of float * float

type frame = {
  fr_cf : Compile.cfunc;
  fr_ret_pc : int;
  fr_except : int option;
  fr_fp : int64;
  fr_sp : int64;
}

type state = {
  cmod : Compile.cmodule;
  mem : Vmem.Memory.t;
  rt : Vmem.Runtime.t;
  regs : int64 array; (* 32; r0 reads as zero *)
  fregs : float array; (* 16 *)
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
  mutable fuel : int;
  mutable trap_handler : string option;
  mutable privileged : bool;
  redirects : (string, string) Hashtbl.t;
  mutable lookup : state -> string -> Compile.cfunc option;
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
    regs = Array.make 32 0L;
    fregs = Array.make 16 0.0;
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
  }

let output st = Vmem.Runtime.output st.rt

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

let rreg st r = if r = 0 then 0L else st.regs.(r)

let wreg st r v = if r <> 0 then st.regs.(r) <- v

let read_operand st = function Rs r -> rreg st r | Imm v -> Int64.of_int v

exception Toplevel_return

let rec deliver_trap st kind : unit =
  (match st.trap_handler with
  | Some hname -> (
      st.trap_handler <- None;
      match st.lookup st hname with
      | Some hcf ->
          let num =
            match kind with
            | Division_by_zero -> 0L
            | Overflow -> 0L (* same divide-fault class as x86 #DE *)
            | Memory_fault _ -> 1L
            | Privilege_violation -> 2L
          in
          run_subcall st hcf [ num; 0L ]
      | None -> ())
  | None -> ());
  raise (Trap kind)

and run_subcall st (cf : Compile.cfunc) (args : int64 list) =
  let saved =
    (Array.copy st.regs, st.frames, st.cur, st.pc)
  in
  List.iteri (fun k v -> wreg st (arg_reg k) v) args;
  st.frames <- [];
  st.cur <- cf;
  st.pc <- 0;
  (try run_until_empty st with Unwound -> ());
  let regs, frames, cur, pc = saved in
  Array.blit regs 0 st.regs 0 32;
  st.frames <- frames;
  st.cur <- cur;
  st.pc <- pc

and resolve_callee st name =
  let name =
    match Hashtbl.find_opt st.redirects name with Some r -> r | None -> name
  in
  match st.lookup st name with
  | Some cf -> `Native cf
  | None -> `External name

and addr_to_name st addr =
  match Vmem.Image.func_at st.cmod.Compile.image addr with
  | Some f -> f.Ir.fname
  | None -> raise (Trap (Memory_fault addr))

and external_call st name =
  if Llva.Intrinsics.is_intrinsic name then intrinsic_call st name
  else if Vmem.Runtime.is_known name then begin
    let nargs =
      match name with
      | "memcpy" | "memset" -> 3
      | "print_nl" | "abort" -> 0
      | _ -> 1
    in
    let args =
      List.init nargs (fun k ->
          let raw = rreg st (arg_reg k) in
          if name = "print_float" then
            Eval.F (Types.Double, Int64.float_of_bits raw)
          else Eval.I (Types.Long, raw))
    in
    match Vmem.Runtime.call st.rt name args with
    | Eval.I (_, v) -> wreg st ret v
    | Eval.P a -> wreg st ret a
    | Eval.B b -> wreg st ret (if b then 1L else 0L)
    | Eval.F (_, f) -> st.fregs.(0) <- f
    | Eval.Undef _ -> ()
  end
  else invalid_arg ("sparclite sim: undefined external " ^ name)

and intrinsic_call st name =
  match name with
  | "llva.trap.register" ->
      st.trap_handler <- Some (addr_to_name st (rreg st (arg_reg 0)))
  | "llva.smc.replace" ->
      let from_n = addr_to_name st (rreg st (arg_reg 0)) in
      let to_n = addr_to_name st (rreg st (arg_reg 1)) in
      Hashtbl.replace st.redirects from_n to_n
  | "llva.stack.depth" -> wreg st ret (Int64.of_int (List.length st.frames))
  | "llva.priv.set" ->
      st.privileged <- not (Int64.equal (rreg st (arg_reg 0)) 0L)
  | other when Llva.Intrinsics.is_privileged other ->
      if not st.privileged then begin
        deliver_trap st Privilege_violation;
        assert false
      end
  | _ -> invalid_arg ("sparclite sim: unknown intrinsic " ^ name)

and cc_holds st cc =
  match st.flags with
  | Fnone -> invalid_arg "sparclite sim: branch without flags"
  | Fint (a, b) -> (
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
          fr_fp = rreg st fp;
          fr_sp = rreg st sp;
        }
        :: st.frames;
      if List.length st.frames > 50_000 then
        invalid_arg "sparclite sim: call stack overflow";
      wreg st lr 0L (* the link register value is symbolic here *);
      st.cur <- cf;
      st.pc <- 0
  | `External name ->
      external_call st name;
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
  | Alu3 (op, w, s, rd, rs1, o) -> (
      let ty = ty_of_width w s in
      let a = rreg st rs1 and b = read_operand st o in
      match op with
      | Add -> wreg st rd (Ir.normalize_int ty (Int64.add a b))
      | Sub -> wreg st rd (Ir.normalize_int ty (Int64.sub a b))
      | Mul -> wreg st rd (Ir.normalize_int ty (Int64.mul a b))
      | And -> wreg st rd (Ir.normalize_int ty (Int64.logand a b))
      | Or -> wreg st rd (Ir.normalize_int ty (Int64.logor a b))
      | Xor -> wreg st rd (Ir.normalize_int ty (Int64.logxor a b))
      | Div | Rem -> (
          let iop = if op = Div then Ir.Div else Ir.Rem in
          match Eval.int_binop iop ty a b with
          | Eval.I (_, v) -> wreg st rd v
          | _ -> ()
          | exception Eval.Division_by_zero ->
              deliver_trap st Division_by_zero
          | exception Eval.Overflow -> deliver_trap st Overflow)
      | Sll | Srl | Sra -> (
          let iop = if op = Sll then Ir.Shl else Ir.Shr in
          let ty = if op = Srl then ty_of_width w false else ty in
          match Eval.int_binop iop ty a b with
          | Eval.I (_, v) -> wreg st rd v
          | _ -> ()))
  | Sethi (rd, v) -> wreg st rd v
  | Ld (w, s, rd, rs, d) -> (
      let addr = Int64.add (rreg st rs) (Int64.of_int d) in
      if Int64.equal addr 0L then deliver_trap st (Memory_fault 0L);
      match
        (* full-word loads (spills, stack slots) take the u64 fast path *)
        match w with
        | W64 -> Vmem.Memory.read_u64 st.mem addr
        | _ -> Vmem.Memory.read_uint st.mem addr (width_bytes w)
      with
      | raw -> wreg st rd (norm w s raw)
      | exception Vmem.Memory.Fault a -> deliver_trap st (Memory_fault a))
  | St (w, rsrc, rs, d) -> (
      let addr = Int64.add (rreg st rs) (Int64.of_int d) in
      if Int64.equal addr 0L then deliver_trap st (Memory_fault 0L);
      match
        match w with
        | W64 -> Vmem.Memory.write_u64 st.mem addr (rreg st rsrc)
        | _ -> Vmem.Memory.write_uint st.mem addr (width_bytes w) (rreg st rsrc)
      with
      | () -> ()
      | exception Vmem.Memory.Fault a -> deliver_trap st (Memory_fault a))
  | Cmp (w, s, r, o) ->
      st.flags <- Fint (norm w s (rreg st r), norm w s (read_operand st o))
  | Movcc (cc, rd) -> wreg st rd (if cc_holds st cc then 1L else 0L)
  | Bcc (cc, l) -> if cc_holds st cc then st.pc <- l
  | Ba l -> st.pc <- l
  | CallSym name ->
      do_call st ~target:(resolve_callee st name) ~except:None ~ret_pc:next
  | CallSymI (name, l) ->
      do_call st ~target:(resolve_callee st name) ~except:(Some l) ~ret_pc:next
  | CallInd r ->
      let name = addr_to_name st (rreg st r) in
      do_call st ~target:(resolve_callee st name) ~except:None ~ret_pc:next
  | CallIndI (r, l) ->
      let name = addr_to_name st (rreg st r) in
      do_call st ~target:(resolve_callee st name) ~except:(Some l) ~ret_pc:next
  | RetS -> (
      match st.frames with
      | [] -> raise Toplevel_return
      | f :: rest ->
          st.frames <- rest;
          st.cur <- f.fr_cf;
          st.pc <- f.fr_ret_pc)
  | UnwindS ->
      let rec unwind frames =
        match frames with
        | [] -> raise Unwound
        | f :: rest -> (
            match f.fr_except with
            | Some handler ->
                st.frames <- rest;
                st.cur <- f.fr_cf;
                st.pc <- handler;
                wreg st fp f.fr_fp;
                wreg st sp f.fr_sp
            | None -> unwind rest)
      in
      unwind st.frames
  | AddSp n -> wreg st sp (Int64.add (rreg st sp) (Int64.of_int n))
  | SubSpDyn (rd, rs) ->
      wreg st sp (Int64.sub (rreg st sp) (rreg st rs));
      wreg st rd (rreg st sp)
  | Falu (op, single, fd, fa, fb) ->
      let x = st.fregs.(fa) and y = st.fregs.(fb) in
      let r =
        match op with
        | Fadd -> x +. y
        | Fsub -> x -. y
        | Fmul -> x *. y
        | Fdiv -> x /. y
        | Frem -> Float.rem x y
      in
      st.fregs.(fd) <- (if single then Eval.round_float Types.Float r else r)
  | Fmovs (fd, fs) -> st.fregs.(fd) <- st.fregs.(fs)
  | Fconst (fd, v) -> st.fregs.(fd) <- v
  | Fld (single, fd, rs, d) -> (
      let addr = Int64.add (rreg st rs) (Int64.of_int d) in
      if Int64.equal addr 0L then deliver_trap st (Memory_fault 0L);
      match
        if single then Vmem.Memory.read_uint st.mem addr 4
        else Vmem.Memory.read_u64 st.mem addr
      with
      | raw ->
          st.fregs.(fd) <-
            (if single then Int32.float_of_bits (Int64.to_int32 raw)
             else Int64.float_of_bits raw)
      | exception Vmem.Memory.Fault a -> deliver_trap st (Memory_fault a))
  | Fst (single, fs, rs, d) -> (
      let addr = Int64.add (rreg st rs) (Int64.of_int d) in
      if Int64.equal addr 0L then deliver_trap st (Memory_fault 0L);
      let v = st.fregs.(fs) in
      match
        if single then
          Vmem.Memory.write_uint st.mem addr 4
            (Int64.of_int32 (Int32.bits_of_float v))
        else Vmem.Memory.write_u64 st.mem addr (Int64.bits_of_float v)
      with
      | () -> ()
      | exception Vmem.Memory.Fault a -> deliver_trap st (Memory_fault a))
  | Fcmp (a, b) -> st.flags <- Ffloat (st.fregs.(a), st.fregs.(b))
  | Cvtif (fd, r, signed) ->
      let v = rreg st r in
      st.fregs.(fd) <-
        (if signed then Int64.to_float v
         else if Int64.compare v 0L >= 0 then Int64.to_float v
         else Int64.to_float v +. 18446744073709551616.0)
  | Cvtfi (rd, f, w, s) ->
      let x = st.fregs.(f) in
      let x = if Float.is_nan x then 0.0 else x in
      wreg st rd (norm w s (Int64.of_float x))
  | Fround f -> st.fregs.(f) <- Eval.round_float Types.Float st.fregs.(f)
  | Mvfi (rd, f) -> wreg st rd (Int64.bits_of_float st.fregs.(f))
  | Mvif (fd, r) -> st.fregs.(fd) <- Int64.float_of_bits (rreg st r)
  | TrapS msg -> invalid_arg ("sparclite sim: trap " ^ msg)

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
      with Toplevel_return -> ())

let call_function st name (int_args : int64 list) : int64 =
  match resolve_callee st name with
  | `External _ ->
      invalid_arg ("sparclite sim: cannot start in external " ^ name)
  | `Native cf ->
      List.iteri (fun k v -> wreg st (arg_reg k) v) int_args;
      st.frames <- [];
      st.cur <- cf;
      st.pc <- 0;
      run_until_empty st;
      rreg st ret

let run_main ?fuel (cmod : Compile.cmodule) =
  let st = create ?fuel cmod in
  st.regs.(sp) <- Vmem.Memory.stack_top;
  st.regs.(fp) <- Vmem.Memory.stack_top;
  let code =
    match call_function st "main" [] with
    | v -> Int64.to_int (Ir.normalize_int Types.Int v)
    | exception Vmem.Runtime.Exit_called c -> c
  in
  (code, st)
