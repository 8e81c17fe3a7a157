(* perfcheck: the benchmark's correctness gate in one command.

     dune build @perfcheck

   Runs perfbench/bench.exe on install, warm-run and certify for one
   second at seed 1, untraced and traced, and fails unless the last line
   of every run reports "correct": true and "failed": 0. Each op of a run
   is checked against the reference results (see perfbench/README.md), so
   this is what a benchmark run would reject, without its timing. *)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let last_line ic =
  let rec go last =
    match In_channel.input_line ic with
    | Some l when String.trim l <> "" -> go l
    | Some _ -> go last
    | None -> last
  in
  go ""

let () =
  let bench, reference =
    match Sys.argv with
    | [| _; bench; reference |] -> (bench, reference)
    | _ ->
        prerr_endline "usage: perfcheck BENCH.exe perfbench/reference.tsv";
        exit 2
  in
  let data = Filename.dirname reference in
  let failed = ref 0 in
  List.iter
    (fun trace ->
      List.iter
        (fun workload ->
          let args =
            [| bench; "--workload"; workload; "--seed"; "1"; "--seconds"; "1";
               "--trace"; trace; "--data"; data |]
          in
          let t0 = Unix.gettimeofday () in
          let ic = Unix.open_process_args_in bench args in
          let last = last_line ic in
          let ok =
            Unix.close_process_in ic = Unix.WEXITED 0
            && contains last "\"correct\": true"
            && contains last "\"failed\": 0"
          in
          if not ok then incr failed;
          Printf.printf "%-8s trace=%s  %s  (%.1f s)\n%!" workload trace
            (if ok then "ok" else "FAILED: " ^ last)
            (Unix.gettimeofday () -. t0))
        [ "install"; "warm-run"; "certify" ])
    [ "0"; "1" ];
  if !failed > 0 then begin
    Printf.printf "perfcheck FAILED: %d run(s)\n" !failed;
    exit 1
  end
  else print_endline "perfcheck passed"
