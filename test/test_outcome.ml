(* Structured-outcome regressions: every engine must map guest traps and
   exhausted fuel budgets into [Llee.Outcome.t] instead of letting the
   engine's own OCaml exception escape. The `--engine x86` crash this
   guards against: the interpreter printed `trap: ...` and exited 134
   while both simulators took down the process with an uncaught
   [Sim.Trap]. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* The divisor is loaded from a global so llva-lint's constant-division
   check cannot see it: the module lints clean, then traps at runtime. *)
let trapping_program =
  {|
%zero = global int 0

int %div_by_global(int %n) {
entry:
  %z = load int* %zero
  %q = div int %n, %z
  ret int %q
}

int %main() {
entry:
  %r = call int %div_by_global(int 50)
  ret int %r
}
|}

let looping_program =
  {|
int %main() {
entry:
  br label %loop
loop:
  br label %loop
}
|}

(* all five engines as [unit -> Outcome.t] launchers *)
let engines ?fuel src =
  let m () = Gen.parse src in
  [
    ("interp", fun () -> fst (Llee.Outcome.run_main_interp ?fuel (m ())));
    ( "x86",
      fun () ->
        fst
          (Llee.Outcome.run_main_x86 ?fuel
             (X86lite.Compile.compile_module (m ()))) );
    ( "sparc",
      fun () ->
        fst
          (Llee.Outcome.run_main_sparc ?fuel
             (Sparclite.Compile.compile_module (m ()))) );
    ( "llee-x86",
      fun () -> fst (Llee.run ?fuel (Llee.of_module ~target:Llee.X86 (m ()))) );
    ( "llee-sparc",
      fun () ->
        fst (Llee.run ?fuel (Llee.of_module ~target:Llee.Sparc (m ()))) );
  ]

let test_trap_all_engines () =
  List.iter
    (fun (tag, launch) ->
      match launch () with
      | Llee.Outcome.Trapped { kind = Llee.Outcome.Division_by_zero; func; _ }
        as o ->
          check_string (tag ^ ": trap names the faulting function")
            "div_by_global" func;
          check_int (tag ^ ": trap exit code") 134 (Llee.Outcome.exit_code o)
      | o ->
          Alcotest.failf "%s: expected division trap, got %s" tag
            (Llee.Outcome.to_string o))
    (engines trapping_program)

let test_fuel_all_engines () =
  List.iter
    (fun (tag, launch) ->
      match launch () with
      | Llee.Outcome.Fuel_exhausted as o ->
          check_int (tag ^ ": fuel exit code") 124 (Llee.Outcome.exit_code o)
      | o ->
          Alcotest.failf "%s: expected fuel exhaustion, got %s" tag
            (Llee.Outcome.to_string o))
    (engines ~fuel:10_000 looping_program)

let test_normal_exit_all_engines () =
  let src = {|
int %main() {
entry:
  ret int 7
}
|} in
  List.iter
    (fun (tag, launch) ->
      match launch () with
      | Llee.Outcome.Exit 7 -> ()
      | o ->
          Alcotest.failf "%s: expected exit 7, got %s" tag
            (Llee.Outcome.to_string o))
    (engines src)

let test_exit_codes () =
  check_int "exit passthrough" 3 (Llee.Outcome.exit_code (Llee.Outcome.Exit 3));
  check_int "trap is 134" 134
    (Llee.Outcome.exit_code
       (Llee.Outcome.Trapped
          {
            kind = Llee.Outcome.Privilege_violation;
            engine = "interp";
            func = "main";
          }));
  check_int "fuel is 124" 124
    (Llee.Outcome.exit_code Llee.Outcome.Fuel_exhausted);
  check_int "degraded is 125" 125
    (Llee.Outcome.exit_code (Llee.Outcome.Cache_degraded { reason = "" }));
  check_int "degraded matches the lint gate's code" Llee.lint_rejected_code
    (Llee.Outcome.exit_code (Llee.Outcome.Cache_degraded { reason = "" }))

(* A trap handler that unwinds ends the handler, not the trap: the
   documented rule is "run the handler, then terminate via Trap". The
   interpreter used to let the unwind reach main's invoke (exit 3) and
   x86lite reported an uncaught unwind; sparclite already delivered the
   trap. All five engines must print the handler's trap number and stop
   with the division trap, attributed to the function it fired in. *)
let handler_unwind_program =
  {|
%zero = global int 0
declare void %llva.trap.register(void (uint, sbyte*)*)
declare void %print_int(int)

void %handler(uint %num, sbyte* %info) {
entry:
  %n = cast uint %num to int
  call void %print_int(int %n)
  unwind
}

int %divide(int %n) {
entry:
  %z = load int* %zero
  %q = div int %n, %z
  ret int %q
}

int %main() {
entry:
  call void %llva.trap.register(void (uint, sbyte*)* %handler)
  %r = invoke int %divide(int 1) to label %ok except label %caught
ok:
  ret int %r
caught:
  ret int 3
}
|}

let test_handler_unwind_all_engines () =
  let outcomes = Gen.engine_results (Gen.parse handler_unwind_program) in
  List.iter
    (fun (tag, o, out) ->
      check_string (tag ^ ": handler printed the trap number") "0" out;
      match o with
      | Llee.Outcome.Trapped { kind = Llee.Outcome.Division_by_zero; func; _ }
        ->
          check_string (tag ^ ": trap names the faulting function") "divide"
            func;
          check_int (tag ^ ": trap exit code") 134 (Llee.Outcome.exit_code o)
      | o ->
          Alcotest.failf "%s: expected the division trap, got %s" tag
            (Llee.Outcome.to_string o))
    outcomes

(* ---------- step counters on every exit path ---------- *)

(* The four native engines as launchers returning the outcome and the
   (cycles, instructions) the run reported. *)
let native_counters ?fuel src =
  let m () = Gen.parse src in
  let llee target () =
    let eng = Llee.of_module ~target (m ()) in
    let o, _ = Llee.run ?fuel eng in
    (o, (eng.Llee.stats.Llee.cycles, eng.Llee.stats.Llee.native_instrs))
  in
  [
    ( "x86",
      fun () ->
        let o, st =
          Llee.Outcome.run_main_x86 ?fuel
            (X86lite.Compile.compile_module (m ()))
        in
        (o, (st.X86lite.Sim.cycles, st.X86lite.Sim.icount)) );
    ( "sparc",
      fun () ->
        let o, st =
          Llee.Outcome.run_main_sparc ?fuel
            (Sparclite.Compile.compile_module (m ()))
        in
        (o, (st.Sparclite.Sim.cycles, st.Sparclite.Sim.icount)) );
    ("llee-x86", llee Llee.X86);
    ("llee-sparc", llee Llee.Sparc);
  ]

let exit_program =
  {|
declare void %exit(int)
declare void %print_int(int)

int %main() {
entry:
  call void %print_int(int 5)
  call void %exit(int 3)
  ret int 0
}
|}

let unwind_program =
  {|
void %thrower() {
entry:
  unwind
}

int %main() {
entry:
  call void %thrower()
  ret int 0
}
|}

(* the handler returns: its instructions run in a nested subcall *)
let handler_program =
  {|
%zero = global int 0
declare void %llva.trap.register(void (uint, sbyte*)*)
declare void %print_int(int)

void %handler(uint %num, sbyte* %info) {
entry:
  %n = cast uint %num to int
  call void %print_int(int %n)
  ret void
}

int %main() {
entry:
  call void %llva.trap.register(void (uint, sbyte*)* %handler)
  %z = load int* %zero
  %x = div int 1, %z
  ret int %x
}
|}

(* [(name, src, fuel, outcome class, x86 (cycles, icount), sparc
   (cycles, icount))]. The counts are pinned: however a run ends, the
   simulators and LLEE must report every instruction it executed, a
   fuel-exhausted run stopping on instruction [fuel + 1]. *)
let exit_path_counts =
  [
    ("fuel 0", looping_program, Some 0, "fuel", (2L, 1L), (3L, 1L));
    ("fuel 1", looping_program, Some 1, "fuel", (3L, 2L), (6L, 2L));
    ( "fuel 10000", looping_program, Some 10_000, "fuel", (10002L, 10001L),
      (10005L, 10001L) );
    ( "fuel 12345", looping_program, Some 12_345, "fuel", (12347L, 12346L),
      (12350L, 12346L) );
    ("trap", trapping_program, None, "trap", (56L, 18L), (61L, 22L));
    ("trap, fuel 3", trapping_program, Some 3, "fuel", (5L, 4L), (8L, 4L));
    ("exit()", exit_program, None, "exit", (22L, 11L), (18L, 10L));
    ("uncaught unwind", unwind_program, None, "trap", (14L, 6L), (23L, 10L));
    ("unwind, fuel 3", unwind_program, Some 3, "fuel", (9L, 4L), (8L, 4L));
    ("trap handler", handler_program, None, "trap", (86L, 32L), (88L, 37L));
    ( "unwinding trap handler", handler_unwind_program, None, "trap",
      (105L, 39L), (94L, 40L) );
  ]

let test_counters_on_every_exit () =
  let pair = Alcotest.(pair int64 int64) in
  List.iter
    (fun (name, src, fuel, cls, x86, sparc) ->
      List.iter
        (fun (tag, launch) ->
          let o, counts = launch () in
          let what = Printf.sprintf "%s on %s" name tag in
          let got =
            match o with
            | Llee.Outcome.Exit _ -> "exit"
            | Llee.Outcome.Trapped _ -> "trap"
            | Llee.Outcome.Fuel_exhausted -> "fuel"
            | Llee.Outcome.Cache_degraded _ -> "degraded"
          in
          check_string (what ^ ": outcome") cls got;
          let want = if tag = "x86" || tag = "llee-x86" then x86 else sparc in
          Alcotest.check pair (what ^ ": (cycles, icount)") want counts;
          match fuel with
          | Some f when cls = "fuel" ->
              Alcotest.(check int64)
                (what ^ ": stops on instruction fuel + 1")
                (Int64.of_int (f + 1))
                (snd counts)
          | _ -> ())
        (native_counters ?fuel src))
    exit_path_counts

(* ---------- pool fault containment ---------- *)

exception Boom of int

let test_pool_mixed_exceptions () =
  (* a raising task aborts only itself: its siblings all run, the pool
     survives, and the earliest input's exception surfaces *)
  let ran = Array.make 8 false in
  let work i =
    ran.(i) <- true;
    if i mod 3 = 1 then raise (Boom i) else i * 10
  in
  (match Llee.Pool.map ~domains:4 work (List.init 8 Fun.id) with
  | _ -> Alcotest.fail "expected the earliest Boom to re-raise"
  | exception Boom i -> check_int "earliest failing input wins" 1 i);
  check_bool "every task still ran" true (Array.for_all Fun.id ran);
  (* same semantics sequentially: no early abort on the first raise *)
  let ran1 = Array.make 8 false in
  let work1 i =
    ran1.(i) <- true;
    if i mod 3 = 1 then raise (Boom i) else i * 10
  in
  (match Llee.Pool.map ~domains:1 work1 (List.init 8 Fun.id) with
  | _ -> Alcotest.fail "expected the earliest Boom to re-raise"
  | exception Boom i -> check_int "sequential: earliest input wins" 1 i);
  check_bool "sequential: every task still ran" true
    (Array.for_all Fun.id ran1);
  (* the pool is not poisoned: the next fan-out works normally *)
  let r = Llee.Pool.map ~domains:4 (fun i -> i + 1) (List.init 16 Fun.id) in
  check_bool "pool survives a raising batch" true
    (r = List.init 16 (fun i -> i + 1))

let test_pool_both_exceptions () =
  (match Llee.Pool.both ~domains:2 (fun () -> raise (Boom 1)) (fun () -> 2) with
  | _ -> Alcotest.fail "expected Boom"
  | exception Boom i -> check_int "first thunk's exception" 1 i);
  let second_ran = ref false in
  (match
     Llee.Pool.both ~domains:2
       (fun () -> raise (Boom 1))
       (fun () ->
         second_ran := true;
         raise (Boom 2))
   with
  | _ -> Alcotest.fail "expected Boom"
  | exception Boom i -> check_int "both raise: first wins" 1 i);
  check_bool "both raise: second thunk still ran" true !second_ran;
  let a, b = Llee.Pool.both ~domains:2 (fun () -> 1) (fun () -> 2) in
  check_int "both survives raising batches: fst" 1 a;
  check_int "both survives raising batches: snd" 2 b

let suite =
  [
    Alcotest.test_case "trap on all five engines" `Quick test_trap_all_engines;
    Alcotest.test_case "fuel exhaustion on all five engines" `Quick
      test_fuel_all_engines;
    Alcotest.test_case "normal exit on all five engines" `Quick
      test_normal_exit_all_engines;
    Alcotest.test_case "outcome exit codes" `Quick test_exit_codes;
    Alcotest.test_case "unwinding trap handler on all five engines" `Quick
      test_handler_unwind_all_engines;
    Alcotest.test_case "counters on every exit path" `Quick
      test_counters_on_every_exit;
    Alcotest.test_case "pool mixed exceptions" `Quick test_pool_mixed_exceptions;
    Alcotest.test_case "pool both exceptions" `Quick test_pool_both_exceptions;
  ]
