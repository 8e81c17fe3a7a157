(* The repository benchmark: one named workload, a seed, a run length.

     bench.exe --workload warm-run|install|certify --seed N --seconds S
       --trace 0|1 [--data DIR]

   Inputs are the 17 programs of lib/workloads, compiled once per set-up
   at -O1 (calls stay out of line) and shipped as encoded virtual object
   code; an op is one (program, target) pair. Load comes from one client
   in a closed loop: each op starts when the previous one has finished
   and been checked. After one untimed warm-up op, a run makes whole
   passes over all pairs, each pass in an order drawn from the seed,
   until [--seconds] have elapsed (certify: at least three passes).

     warm-run  Llee.load + Llee.run against an on-disk cache that set-up
               filled with translate_offline (peephole on): nothing is
               translated, the time is the simulators and vmem.
     install   Llee.load + translate_offline into an empty on-disk cache
               (default options): lint, isel/regalloc/emit, cache writes.
     certify   Llee.load + Llee.certify in fresh storage, with the seed as
               the checker's vector seed: interpreter and simulators run
               thousands of short calls.

   Every op is checked: warm launches against the reference interpreter's
   exit code and output (reference.tsv), installs against the first
   install of the same pair (byte-identical cache entries), certify jobs
   against zero mismatches and the recorded certified/skipped split.

   --trace 0 prints the end-to-end metrics of the workload. --trace 1
   runs every workload once more with one span per layer call (timed from
   here, around the layers' public functions) and prints the per-layer
   metrics, each taken from the workload whose end-to-end result it
   explains, plus the tracing overhead of the named workload. The last
   line of output is always one JSON object. *)

open Llva

let now = Unix.gettimeofday
let span = Spans.span

exception Check_failed of string

let check cond fmt =
  Printf.ksprintf (fun msg -> if not cond then raise (Check_failed msg)) fmt

(* ---------- file system ---------- *)

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* digest of a cache directory: every file's name and contents, in name
   order; empty for an empty directory *)
let cache_digest dir =
  match Sys.readdir dir |> Array.to_list |> List.sort compare with
  | [] -> ""
  | names ->
      List.map
        (fun n -> n ^ " " ^ Digest.to_hex (Digest.file (Filename.concat dir n)))
        names
      |> String.concat "\n" |> Digest.string |> Digest.to_hex

(* ---------- inputs ---------- *)

type program = { name : string; m : Ir.modl; bytes : string }
type pair = { prog : program; target : Llee.target }

let key p = p.prog.name ^ "/" ^ Llee.target_name p.target

(* MiniC front end, then the -O1 pipeline, then the object-code encoder:
   what [Workloads.compile_optimized ~level:1] does, one layer per span *)
let build_programs () =
  List.map
    (fun (w : Workloads.workload) ->
      let m =
        span "minic.compile" (fun () ->
            Minic.Mcodegen.compile_and_verify ~name:w.Workloads.name
              w.Workloads.source)
      in
      span "transform.optimize" (fun () ->
          ignore (Transform.Passmgr.optimize ~level:1 m);
          match Verify.verify_module m with
          | [] -> ()
          | errs -> raise (Verify.Invalid errs));
      let bytes = span "llva.encode" (fun () -> Encode.encode m) in
      { name = w.Workloads.name; m; bytes })
    Workloads.all

let pairs_of programs =
  List.concat_map
    (fun p ->
      [ { prog = p; target = Llee.X86 }; { prog = p; target = Llee.Sparc } ])
    programs
  |> Array.of_list

(* certify keeps the ten programs whose two jobs take under 4 s
   together on a 2-core x86 host. A certify run makes three passes (see
   [workloads]), and three passes over the other seven would take minutes:
   crafty alone takes 46-52 s per target, in fuel-exhausting vectors of
   rook_attacks, and gap, ks, vpr, twolf, bc and parser 4-9 s a program.
   They stay in warm-run and install; the @tv gate certifies them all. *)
let certify_excluded =
  [
    "186.crafty";
    "197.parser";
    "ptrdist-bc";
    "300.twolf";
    "175.vpr";
    "ptrdist-ks";
    "254.gap";
  ]

let certify_pairs pairs =
  Array.to_seq pairs
  |> Seq.filter (fun p -> not (List.mem p.prog.name certify_excluded))
  |> Array.of_seq

(* ---------- reference outputs ---------- *)

(* reference.tsv records, per program, the reference interpreter's exit
   code and output, and per certify pair the certified/skipped split.
   [--write-reference] regenerates it; nothing else writes it. *)
type reference = {
  runs : (string, int * string) Hashtbl.t;
  splits : (string, int * int) Hashtbl.t;
}

let load_reference path =
  let r = { runs = Hashtbl.create 32; splits = Hashtbl.create 64 } in
  In_channel.with_open_text path In_channel.input_lines
  |> List.iter (fun line ->
         match String.split_on_char '\t' line with
         | [ "run"; prog; code; out ] ->
             Hashtbl.replace r.runs prog
               (int_of_string code, Scanf.unescaped out)
         | [ "certify"; k; c; s ] ->
             Hashtbl.replace r.splits k (int_of_string c, int_of_string s)
         | _ -> ());
  r

let split (v : Llee.Tv.verdict) =
  let c = Llee.Tv.certified v in
  (c, List.length v.Llee.Tv.v_results - c - Llee.Tv.mismatches v)

let write_reference path =
  let programs = build_programs () in
  Out_channel.with_open_text path (fun oc ->
      output_string oc
        "# regenerate with: bench.exe --write-reference FILE\n\
         # run<TAB>program<TAB>exit code<TAB>output (OCaml-escaped): Interp\n\
         # certify<TAB>program/target<TAB>certified<TAB>skipped: Llee.certify\n";
      List.iter
        (fun p ->
          let st = Interp.create p.m in
          let code = Interp.run_main st in
          Printf.fprintf oc "run\t%s\t%d\t%s\n%!" p.name code
            (String.escaped (Interp.output st)))
        programs;
      Array.iter
        (fun p ->
          let e =
            Llee.load ~storage:(Llee.Storage.in_memory ()) ~target:p.target
              p.prog.bytes
          in
          let c, s = split (Llee.certify e) in
          Printf.fprintf oc "certify\t%s\t%d\t%d\n%!" (key p) c s)
        (certify_pairs (pairs_of programs)))

(* ---------- storage wrapper ---------- *)

(* Counts every read and write through the storage API, and (traced)
   times each one as a span. Wraps the record Llee is given, so nothing
   inside lib/llee changes. *)
module Io = struct
  type counts = {
    mutable reads : int;
    mutable hits : int;
    mutable writes : int;
    mutable bytes : int;
  }

  let c = { reads = 0; hits = 0; writes = 0; bytes = 0 }
  let snapshot () = { c with reads = c.reads }

  let diff a b =
    {
      reads = a.reads - b.reads;
      hits = a.hits - b.hits;
      writes = a.writes - b.writes;
      bytes = a.bytes - b.bytes;
    }

  let wrap (s : Llee.Storage.t) =
    {
      s with
      Llee.Storage.read =
        (fun name ->
          span "llee.storage_read" (fun () ->
              let r = s.Llee.Storage.read name in
              c.reads <- c.reads + 1;
              if Option.is_some r then c.hits <- c.hits + 1;
              r));
      write =
        (fun name data ->
          span "llee.storage_write" (fun () ->
              s.Llee.Storage.write name data;
              c.writes <- c.writes + 1;
              c.bytes <- c.bytes + String.length data));
    }
end

(* ---------- per-op records ---------- *)

(* What one op did, beyond its latency: the deterministic counts that
   must repeat across runs and across traced and untraced runs. *)
type record = {
  k : string;
  ms : float;
  io : Io.counts;
  cycles : int64;
  instrs : int64;
  code_bytes : int;
  static_instrs : int;
  verdict : Llee.Tv.verdict option;
  digest : string; (* install: the cache's full contents *)
}

let blank k ms io =
  {
    k;
    ms;
    io;
    cycles = 0L;
    instrs = 0L;
    code_bytes = 0;
    static_instrs = 0;
    verdict = None;
    digest = "";
  }

(* per-layer counts only the traced ops can see *)
let counts : (string, float) Hashtbl.t = Hashtbl.create 32

let count name v =
  Hashtbl.replace counts name
    (v +. Option.value ~default:0.0 (Hashtbl.find_opt counts name))

(* The timed part of an op; traced, it is the "op" span that the op's
   layer spans hang from. Returns the result and the latency in ms. *)
let timed f =
  let t0 = now () in
  let r = span "op" f in
  (r, (now () -. t0) *. 1e3)

(* ---------- warm-run ---------- *)

type ctx = {
  seed : int;
  work : string; (* scratch directory of this run *)
  reference : reference;
  warm_dir : string; (* the cache set-up filled *)
  mutable fresh : int; (* install: next fresh cache directory *)
  code_sizes : (string, int * int) Hashtbl.t; (* install: per pair *)
}

let new_ctx ~seed ~work ~reference warm_dir =
  { seed; work; reference; warm_dir; fresh = 0; code_sizes = Hashtbl.create 64 }

(* set-up: offline translation of every pair, peephole on, into one
   on-disk cache — the paper's install step, search included. Programs
   are spread over the Pool's domains (one per core; one while tracing,
   as spans are recorded on one domain). Both targets of a program stay
   on one domain: they share the #lint# entry. *)
let warm_fill programs dir =
  let storage = Llee.Storage.on_disk ~dir in
  let domains = if !Spans.on then 1 else Llee.Pool.default_domains () in
  Llee.Pool.map ~domains
    (fun prog ->
      List.fold_left
        (fun rewrites target ->
          let e = Llee.load ~storage ~peephole:true ~target prog.bytes in
          span "superopt.search" (fun () -> ignore (Llee.ensure_peep_table e));
          span "llee.translate_offline" (fun () ->
              Llee.translate_offline ~domains:1 e);
          check (e.Llee.stats.Llee.peep_searches = 1) "%s: no peephole search"
            prog.name;
          rewrites + e.Llee.stats.Llee.peep_rewrites)
        0 [ Llee.X86; Llee.Sparc ])
    programs
  |> List.iter (fun n -> count "superopt.rewrites" (float_of_int n))

let check_run ctx p code out =
  let rcode, rout = Hashtbl.find ctx.reference.runs p.prog.name in
  check (code = rcode) "%s: exit %d, reference %d" (key p) code rcode;
  check (out = rout) "%s: output %S, reference %S" (key p) out rout

let warm_op ctx p =
  let storage = Io.wrap (Llee.Storage.on_disk ~dir:ctx.warm_dir) in
  let io0 = Io.snapshot () in
  let (e, (outcome, out)), ms =
    timed (fun () ->
        let e = Llee.load ~storage ~peephole:true ~target:p.target p.prog.bytes in
        (e, Llee.run e))
  in
  let st = e.Llee.stats in
  (match outcome with
  | Llee.Outcome.Exit code -> check_run ctx p code out
  | o -> check false "%s: %s" (key p) (Llee.Outcome.to_string o));
  check (st.Llee.translations = 0) "%s: warm launch translated %d functions"
    (key p) st.Llee.translations;
  check
    (st.Llee.lint_skipped = 1 && st.Llee.peep_table_loads = 1)
    "%s: warm launch did not reuse the lint verdict and peephole table" (key p);
  {
    (blank (key p) ms (Io.diff (Io.snapshot ()) io0)) with
    cycles = st.Llee.cycles;
    instrs = st.Llee.native_instrs;
  }

(* The traced launch makes the calls Llee.run makes on a warm cache, one
   public function at a time: lint gate (reads #lint#), peephole table
   (reads #peep#), the whole-module entry, the image, the simulator. *)
let warm_traced ctx p =
  let storage = Io.wrap (Llee.Storage.on_disk ~dir:ctx.warm_dir) in
  let io0 = Io.snapshot () in
  let (code, out, cycles, instrs), ms =
    timed (fun () ->
      let e =
        span "llee.load" (fun () ->
            Llee.load ~storage ~peephole:true ~target:p.target p.prog.bytes)
      in
      (match span "llee.lint_gate" (fun () -> Llee.lint_gate e) with
      | Llee.Gate_clean -> ()
      | _ -> check false "%s: lint gate not clean" (key p));
      ignore (span "superopt.table_load" (fun () -> Llee.ensure_peep_table e));
      let name = Llee.module_entry_name e in
      let data =
        match Llee.read_cached e name with
        | Some d -> d
        | None -> raise (Check_failed (key p ^ ": whole-module entry missing"))
      in
      let unframe () =
        span "llee.unframe" (fun () ->
            match Llee.unmarshal_entry e name data with
            | Some pairs -> pairs
            | None ->
                raise (Check_failed (key p ^ ": whole-module entry unreadable")))
      in
      let table pairs =
        let h = Hashtbl.create 32 in
        List.iter (fun (n, cf) -> Hashtbl.replace h n cf) pairs;
        h
      in
      let image () =
        span "vmem.image_load" (fun () -> Vmem.Image.load e.Llee.m)
      in
      match p.target with
      | Llee.X86 ->
          let funcs = table (unframe ()) in
          let image = image () in
          let code, st =
            span "x86lite.sim" (fun () ->
                X86lite.Sim.run_main
                  { X86lite.Compile.cm = e.Llee.m; image; funcs })
          in
          ( code,
            X86lite.Sim.output st,
            st.X86lite.Sim.cycles,
            st.X86lite.Sim.icount )
      | Llee.Sparc ->
          let funcs = table (unframe ()) in
          let image = image () in
          let code, st =
            span "sparclite.sim" (fun () ->
                Sparclite.Sim.run_main
                  { Sparclite.Compile.cm = e.Llee.m; image; funcs })
          in
          ( code,
            Sparclite.Sim.output st,
            st.Sparclite.Sim.cycles,
            st.Sparclite.Sim.icount ))
  in
  check_run ctx p code out;
  { (blank (key p) ms (Io.diff (Io.snapshot ()) io0)) with cycles; instrs }

(* ---------- install ---------- *)

let fresh_dir ctx =
  ctx.fresh <- ctx.fresh + 1;
  Filename.concat ctx.work (Printf.sprintf "install-%d" ctx.fresh)

(* the module entry's code, read back outside the timed part *)
let installed_code p dir e =
  let raw = Llee.Storage.on_disk ~dir in
  let data =
    match raw.Llee.Storage.read (Llee.module_entry_name e) with
    | Some entry -> entry.Llee.Storage.data
    | None -> raise (Check_failed (key p ^ ": no whole-module entry written"))
  in
  let payload =
    match Llee.unframe_entry data with
    | Llee.Payload s -> s
    | _ -> raise (Check_failed (key p ^ ": whole-module entry damaged"))
  in
  let sum size count pairs =
    List.fold_left
      (fun (b, n) (_, cf) -> (b + size cf, n + count cf))
      (0, 0) pairs
  in
  match p.target with
  | Llee.X86 ->
      sum X86lite.Compile.func_code_size X86lite.Compile.func_instr_count
        (Marshal.from_string payload 0 : (string * X86lite.Compile.cfunc) list)
  | Llee.Sparc ->
      sum Sparclite.Compile.func_code_size Sparclite.Compile.func_instr_count
        (Marshal.from_string payload 0 : (string * Sparclite.Compile.cfunc) list)

(* checked and measured after the timed part: the cache's digest, and
   on a pair's first install the size of the code it holds *)
let finish_install ctx p dir e r =
  let digest = cache_digest dir in
  check (digest <> "") "%s: install left an empty cache" (key p);
  let code_bytes, static_instrs =
    match Hashtbl.find_opt ctx.code_sizes (key p) with
    | Some sizes -> sizes
    | None ->
        let sizes = installed_code p dir e in
        Hashtbl.replace ctx.code_sizes (key p) sizes;
        sizes
  in
  rm_rf dir;
  { r with digest; code_bytes; static_instrs }

let install_op ctx p =
  let dir = fresh_dir ctx in
  let storage = Io.wrap (Llee.Storage.on_disk ~dir) in
  let io0 = Io.snapshot () in
  let e, ms =
    timed (fun () ->
        let e = Llee.load ~storage ~target:p.target p.prog.bytes in
        Llee.translate_offline e;
        e)
  in
  finish_install ctx p dir e (blank (key p) ms (Io.diff (Io.snapshot ()) io0))

(* The traced install makes the calls translate_offline makes on a clean
   module: the lint verdict (read miss, Check.Lint.verdict, write), then
   one image, one compile_function per defined function, one entry per
   function and the whole-module entry. The cache it leaves must be
   byte-identical to the untraced install's. *)
let install_traced ctx p =
  let dir = fresh_dir ctx in
  let storage = Io.wrap (Llee.Storage.on_disk ~dir) in
  let io0 = Io.snapshot () in
  let frame payload =
    span "llee.frame" (fun () -> Llee.frame_entry (payload ()))
  in
  (* compiled on the Pool domains, as translate_offline does; spans are
     recorded on this domain only, so the layer's span is the whole map *)
  let install e layer compile =
    let compiled =
      span layer (fun () ->
          Llee.Pool.map (fun (f : Ir.func) -> (f.Ir.fname, compile f))
            (List.filter (fun f -> not (Ir.is_declaration f)) e.Llee.m.Ir.funcs))
    in
    List.iter
      (fun (n, cf) ->
        Llee.storage_write e (Llee.cache_name e n)
          (frame (fun () -> Marshal.to_string cf [])))
      compiled;
    Llee.storage_write e (Llee.module_entry_name e)
      (frame (fun () -> Marshal.to_string compiled []))
  in
  let e, ms =
    timed (fun () ->
        let e =
          span "llee.load" (fun () ->
              Llee.load ~storage ~target:p.target p.prog.bytes)
        in
        let m = e.Llee.m in
        let lname = Llee.lint_entry_name e in
        check (Llee.read_cached e lname = None) "%s: fresh cache holds a verdict"
          (key p);
        let v = span "check.lint" (fun () -> Check.Lint.verdict m) in
        check (Check.Lint.verdict_clean v) "%s: lint errors" (key p);
        Llee.storage_write e lname
          (frame (fun () ->
               Check.Json.to_string ~pretty:false (Check.Lint.verdict_to_json v)));
        let image = span "vmem.image_load" (fun () -> Vmem.Image.load m) in
        (match p.target with
        | Llee.X86 ->
            install e "x86lite.translate" (fun f ->
                X86lite.Compile.compile_function m image ~peep:[]
                  ~peep_stats:(X86lite.Compile.fresh_peep_stats ()) f)
        | Llee.Sparc ->
            install e "sparclite.translate" (fun f ->
                Sparclite.Compile.compile_function m image ~peep:[]
                  ~peep_stats:(Sparclite.Compile.fresh_peep_stats ()) f));
        e)
  in
  let r =
    finish_install ctx p dir e (blank (key p) ms (Io.diff (Io.snapshot ()) io0))
  in
  (* layers that run inside Llee.load and Check.Lint.verdict, timed on
     their own after the op *)
  ignore (span "llva.decode" (fun () -> Decode.decode p.prog.bytes));
  let ranges = span "check.ranges" (fun () -> Check.Ranges.compute e.Llee.m) in
  span "check.rel" (fun () -> Check.Ranges.force_relations ranges);
  count "check.range_sweeps" (float_of_int (Check.Ranges.total_sweeps ranges));
  count "check.rel_facts" (float_of_int (Check.Ranges.rel_fact_count ranges));
  r

(* ---------- certify ---------- *)

let check_verdict ctx p (v : Llee.Tv.verdict) =
  check (Llee.Tv.mismatches v = 0) "%s: %s" (key p)
    (String.concat "; " (Llee.Tv.report v));
  let c, s = split v in
  let rc, rs = Hashtbl.find ctx.reference.splits (key p) in
  check (c = rc && s = rs) "%s: certified/skipped %d/%d, recorded %d/%d" (key p)
    c s rc rs

let certify_op ctx p =
  let storage = Io.wrap (Llee.Storage.in_memory ()) in
  let io0 = Io.snapshot () in
  let v, ms =
    timed (fun () ->
        Llee.certify ~seed:ctx.seed
          (Llee.load ~storage ~target:p.target p.prog.bytes))
  in
  check_verdict ctx p v;
  { (blank (key p) ms (Io.diff (Io.snapshot ()) io0)) with verdict = Some v }

(* Tv.run_interp with the interpreter call itself as a span and its step
   count kept *)
let run_interp (m : Ir.modl) env fname args rty extent =
  let st = Interp.create ~fuel:Llee.Tv.default_interp_fuel m in
  let ret = ref "" and normal = ref false in
  let o =
    Llee.Outcome.protect ~engine:"interp"
      ~current:(fun () -> st.Interp.current)
      (fun () ->
        let v =
          span "interp.run" (fun () -> Interp.run_function st fname args)
        in
        ret := Llee.Tv.render_ret_scalar env rty v;
        normal := true;
        0)
  in
  count "interp.steps" (float_of_int st.Interp.stats.Interp.steps);
  Llee.Tv.obs_of ~normal:!normal ~ret:!ret o (Interp.output st)
    (Llee.Tv.snapshot_globals st.Interp.mem extent)

(* The traced job makes the calls Llee.certify makes on fresh storage:
   the #tv# read miss, then Tv.certify_module one layer at a time —
   compile_module, the globals extent, and per certifiable function the
   vectors of Tv.vectors_for under the same seed, each run on the
   interpreter and on the target's simulator — then the #tv# write. The
   verdict must equal the untraced job's. *)
let certify_traced ctx p =
  let module Tv = Llee.Tv in
  let storage = Io.wrap (Llee.Storage.in_memory ()) in
  let io0 = Io.snapshot () in
  let v, ms =
    timed (fun () ->
      let e =
        span "llee.load" (fun () ->
            Llee.load ~storage ~target:p.target p.prog.bytes)
      in
      let m = e.Llee.m in
      let tname = Llee.tv_entry_name e in
      check (Llee.read_cached e tname = None)
        "%s: fresh storage holds a verdict" (key p);
      let native =
        match p.target with
        | Llee.X86 ->
            let c =
              span "x86lite.translate" (fun () ->
                  X86lite.Compile.compile_module m)
            in
            Tv.run_x86 c
        | Llee.Sparc ->
            let c =
              span "sparclite.translate" (fun () ->
                  Sparclite.Compile.compile_module m)
            in
            Tv.run_sparc c
      in
      let env = Ir.type_env m in
      let extent =
        Tv.globals_extent m (span "vmem.image_load" (fun () -> Vmem.Image.load m))
      in
      let certify_fn (f : Ir.func) param_tys =
        let fname = f.Ir.fname and rty = f.Ir.freturn in
        let rand = Random.State.make [| ctx.seed; Hashtbl.hash fname |] in
        let vecs = Tv.vectors_for env rand ~extra:Tv.default_vectors param_tys in
        let rec go conclusive last = function
          | [] ->
              if conclusive = 0 then
                Tv.Skipped
                  {
                    reason =
                      (match last with
                      | Some r -> "no conclusive vector: " ^ r
                      | None -> "no vectors");
                  }
              else Tv.Certified { vectors = conclusive }
          | vec :: rest -> (
              count "tv.vectors" 1.0;
              let a =
                span "tv.interp" (fun () -> run_interp m env fname vec rty extent)
              in
              let b =
                span "tv.native" (fun () ->
                    native env fname vec rty extent ~fuel:Tv.default_native_fuel)
              in
              match (a, b) with
              | Tv.Inconclusive r, _ | _, Tv.Inconclusive r ->
                  count "tv.inconclusive" 1.0;
                  go conclusive (Some r) rest
              | Tv.Conclusive a, Tv.Conclusive b ->
                  if a = b then go (conclusive + 1) last rest
                  else
                    Tv.Mismatch
                      {
                        vector = Tv.render_vector vec;
                        detail = Tv.describe_diff a b;
                      })
        in
        go 0 None vecs
      in
      let results =
        List.filter_map
          (fun (f : Ir.func) ->
            if Ir.is_declaration f then None
            else
              Some
                ( f.Ir.fname,
                  match Tv.certifiable env f with
                  | Error reason -> Tv.Skipped { reason }
                  | Ok param_tys -> certify_fn f param_tys ))
          m.Ir.funcs
      in
      let v =
        {
          Tv.v_version = Tv.version;
          v_target = Llee.target_name p.target;
          v_results = results;
        }
      in
      Llee.storage_write e tname
        (span "llee.frame" (fun () ->
             Llee.frame_entry
               (Check.Json.to_string ~pretty:false (Tv.verdict_to_json v))));
        v)
  in
  check_verdict ctx p v;
  let c, s = split v in
  count "tv.certified_funcs" (float_of_int c);
  count "tv.skipped_funcs" (float_of_int s);
  { (blank (key p) ms (Io.diff (Io.snapshot ()) io0)) with verdict = Some v }

(* ---------- workloads ---------- *)

type workload = {
  wname : string;
  pairs : pair array -> pair array; (* which pairs the ops draw from *)
  fill : program list -> string -> unit; (* set-up beyond compiling *)
  op : ctx -> pair -> record;
  traced : ctx -> pair -> record;
  (* an op must repeat its first run's deterministic results *)
  same : record -> record -> bool;
  (* the fewest whole passes an untraced run makes, whatever [--seconds] *)
  passes : int;
}

(* in the order the traced run takes them: install first, as it is the
   cheapest and needs no set-up beyond compiling *)
let workloads =
  [
    {
      wname = "install";
      pairs = Fun.id;
      fill = (fun _ _ -> ());
      op = install_op;
      traced = install_traced;
      same = (fun a b -> a.digest = b.digest && a.io = b.io);
      passes = 1;
    };
    {
      wname = "warm-run";
      pairs = Fun.id;
      fill = warm_fill;
      op = warm_op;
      traced = warm_traced;
      same =
        (fun a b -> a.cycles = b.cycles && a.instrs = b.instrs && a.io = b.io);
      passes = 1;
    };
    {
      wname = "certify";
      pairs = certify_pairs;
      fill = (fun _ _ -> ());
      op = certify_op;
      traced = certify_traced;
      same = (fun a b -> a.verdict = b.verdict && a.io = b.io);
      (* A job takes 0.2-2.5 s, long enough for the host's slow phases
         of a few seconds to land on one job and not the next; three
         passes give every job three samples taken at different times. *)
      passes = 3;
    };
  ]

(* ---------- the closed loop ---------- *)

let attempted = ref 0
let failed = ref 0

(* the i-th op of a run: passes over all pairs, each in its own seeded order *)
let order seed pairs pass =
  let a = Array.copy pairs in
  let rng = Random.State.make [| seed; pass |] in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* The largest the major heap has been in this process, taken when the
   first pass ends: a property of the work, where the peak at the end of
   the run would grow with the number of passes the host's speed allowed
   (OCaml's heap grows with fragmentation over a long run). Set-up runs in
   child processes and does not count. *)
let first_pass_heap_words = ref 0

let peak_heap_mb () =
  float_of_int (!first_pass_heap_words * (Sys.word_size / 8)) /. 1048576.0

(* Runs one op on [p] and checks it; returns its record if it passed.
   [first] holds each pair's first record and every later record of the
   pair must match it. *)
let attempt ctx w ~first op p =
  incr attempted;
  Spans.op := !attempted;
  match
    let r = op ctx p in
    (match Hashtbl.find_opt first r.k with
    | None -> Hashtbl.replace first r.k r
    | Some r0 ->
        check (w.same r0 r) "%s: result differs from the pair's first op" r.k);
    r
  with
  | r -> Some r
  | exception e ->
      incr failed;
      Printf.eprintf "FAILED op %d (%s): %s\n%!" !attempted (key p)
        (match e with Check_failed m -> m | e -> Printexc.to_string e);
      None

(* Runs at least [passes] passes of ops and until [seconds] have elapsed
   — whole passes, or with [~partial] stopping after any op — and
   returns the records of the ops that passed their checks, in op order,
   and the number of ops run.
   With [~warm_up], one op on the run's first pair comes before the
   timed ones: the first two ops of a process run about 7% slower (heap
   growth, cold caches), and which pair is first depends on the seed. It
   is checked and counted as attempted; its latency is not kept. *)
let run_ops ?(partial = false) ?(warm_up = false) ?(passes = 1) ctx w pairs
    ~seconds ~first op =
  let n = Array.length pairs in
  if warm_up then ignore (attempt ctx w ~first op (order ctx.seed pairs 0).(0));
  let records = ref [] in
  let t0 = now () in
  let i = ref 0 in
  while
    !i = 0
    || ((not partial) && (!i < passes * n || !i mod n <> 0))
    || now () -. t0 < seconds
  do
    let p = (order ctx.seed pairs (!i / n)).(!i mod n) in
    incr i;
    Option.iter (fun r -> records := r :: !records) (attempt ctx w ~first op p);
    if !i = n then
      first_pass_heap_words := (Gc.quick_stat ()).Gc.top_heap_words
  done;
  (List.rev !records, !i)

(* ---------- statistics ---------- *)

let sorted l = List.sort compare l |> Array.of_list

(* nearest-rank percentile of a sorted array *)
let percentile a p =
  let n = Array.length a in
  let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
  a.(max 0 (min (n - 1) (rank - 1)))

(* Harrell-Davis estimate of the [p]-th percentile of a sorted array: a
   weighted mean of all order statistics, rank i weighted by the mass the
   Beta(q(n+1), (1-q)(n+1)) density puts on [(i-1)/n, i/n]. A single
   order statistic jumps by the gap to its neighbour whenever host noise
   swaps two pairs of similar size; this estimate moves smoothly. *)
let hd_percentile a p =
  let n = Array.length a in
  if n < 3 then percentile a p
  else begin
    let q = p /. 100.0 and m = float_of_int (n + 1) in
    let alpha = q *. m and beta = (1.0 -. q) *. m in
    let density t =
      if t <= 0.0 || t >= 1.0 then 0.0
      else exp (((alpha -. 1.0) *. log t) +. ((beta -. 1.0) *. log (1.0 -. t)))
    in
    (* Simpson's rule over each rank's slice *)
    let steps = 16 in
    let mass i =
      let lo = float_of_int i /. float_of_int n in
      let h = 1.0 /. float_of_int (n * steps) in
      let s = ref (density lo +. density (lo +. (h *. float_of_int steps))) in
      for k = 1 to steps - 1 do
        let c = if k mod 2 = 1 then 4.0 else 2.0 in
        s := !s +. (c *. density (lo +. (h *. float_of_int k)))
      done;
      !s *. h /. 3.0
    in
    let w = Array.init n mass in
    let total = Array.fold_left ( +. ) 0.0 w in
    let acc = ref 0.0 in
    Array.iteri (fun i wi -> acc := !acc +. (wi *. a.(i))) w;
    !acc /. total
  end

(* the middle value, or the mean of the middle two *)
let median l =
  let a = sorted l in
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* the highest whole percentile with at least 10 samples beyond it *)
let tail_percentile n =
  let rec go p =
    if p <= 50 || n - int_of_float (ceil (float_of_int (p * n) /. 100.0)) >= 10
    then p
    else go (p - 1)
  in
  go 99

(* latency of a pair = median over its ops in the run *)
let pair_latencies records =
  let by = Hashtbl.create 64 in
  List.iter
    (fun r ->
      Hashtbl.replace by r.k
        (r.ms :: Option.value ~default:[] (Hashtbl.find_opt by r.k)))
    records;
  Hashtbl.fold (fun _ l acc -> median l :: acc) by []

(* The latency samples the percentiles are taken over. A workload that
   makes as many passes as fit in the run takes each pair's median, so
   the number of samples, and with it the tail's percentile, does not
   depend on the host's speed: p70 of 34 pairs. One with a fixed number
   of passes has a fixed number of ops and takes every op: certify's 20
   pairs alone would leave no tail with 10 samples beyond it, its 60
   ops give p83. *)
let latency_samples w records =
  if w.passes > 1 then List.map (fun r -> r.ms) records
  else pair_latencies records

let sum f l = List.fold_left (fun acc r -> acc +. f r) 0.0 l

(* ---------- output ---------- *)

(* a value no op could produce (all ops failed: 0/0) prints as 0; the
   result then says correct: false *)
let metric (name, unit_, v) =
  Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name
    (if Float.is_finite v then v else 0.0)
    unit_

let print_result metrics =
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (!failed = 0) !attempted !failed
    (String.concat ", " (List.map metric metrics))

(* ---------- set-up ---------- *)

(* Set-up runs at least [setup_min] times, and for cheap set-ups (the
   compile step alone, ~0.1 s) again until [setup_min_s] have gone into
   it, at most [setup_max] times: the median of a few 0.1 s samples moves
   with every scheduling hiccup of the host. *)
let setup_min = 3
let setup_min_s = 1.5
let setup_max = 15

(* Runs [f] in a child process and returns its wall time. A set-up run
   this way leaves none of its garbage in the heap the ops are measured
   in, and may use every core. *)
let timed_in_child f =
  flush_all ();
  let t0 = now () in
  match Unix.fork () with
  | 0 ->
      let code =
        match f () with
        | () -> 0
        | exception e ->
            prerr_endline ("set-up failed: " ^ Printexc.to_string e);
            1
      in
      flush_all ();
      Unix._exit code
  | pid -> (
      match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> now () -. t0
      | _ -> raise (Check_failed "set-up failed"))

(* Set-up = compile the programs, plus the workload's fill into [dir]. It
   runs as often as [setup_min], [setup_min_s] and [setup_max] say and
   [setup_s] is the median; the ops use the cache the last one left. *)
let set_up w work =
  let dir = Filename.concat work "set-up" in
  let rec go times =
    let n = List.length times and total = List.fold_left ( +. ) 0.0 times in
    if n >= setup_max || (n >= setup_min && total >= setup_min_s) then
      List.rev times
    else begin
      rm_rf dir;
      mkdir_p dir;
      go (timed_in_child (fun () -> w.fill (build_programs ()) dir) :: times)
    end
  in
  let times = go [] in
  (times, (build_programs (), dir))

(* ---------- untraced run: end-to-end metrics ---------- *)

let end_to_end w ~seed ~seconds ~work ~reference =
  let setup_times, (programs, dir) = set_up w work in
  let pairs = w.pairs (pairs_of programs) in
  let ctx = new_ctx ~seed ~work ~reference dir in
  let records, ran =
    run_ops ~warm_up:true ~passes:w.passes ctx w pairs ~seconds
      ~first:(Hashtbl.create 64) w.op
  in
  let passes = float_of_int (ran / Array.length pairs) in
  let per_pass f = sum f records /. passes in
  let lat = latency_samples w records in
  let n = List.length lat in
  let tail = tail_percentile n in
  let lat_sorted = sorted lat in
  let p50_ms = hd_percentile lat_sorted 50.0 in
  let tail_ms = hd_percentile lat_sorted (float_of_int tail) in
  let busy_s = sum (fun r -> r.ms) records /. 1e3 in
  Printf.printf "perfbench workload=%s seed=%d seconds=%g trace=0\n" w.wname
    seed seconds;
  Printf.printf "setup: %s s\n"
    (String.concat " " (List.map (Printf.sprintf "%.3f") setup_times));
  Printf.printf "ops: %d attempted (1 warm-up, then %.0f pass(es) of %d \
                 pairs), %d failed, error_rate %g\n"
    !attempted passes (Array.length pairs) !failed
    (float_of_int !failed /. float_of_int (max 1 !attempted));
  Printf.printf
    "latency_ms: p50 %.3f, tail p%d %.3f (Harrell-Davis, %d %s, %d beyond \
     p%d); order statistics %.3f, %.3f\n"
    p50_ms tail tail_ms n
    (if w.passes > 1 then "ops" else "pair medians")
    (n - int_of_float (ceil (float_of_int (tail * n) /. 100.0)))
    tail (median lat)
    (percentile lat_sorted (float_of_int tail));
  Printf.printf "storage per pass: %.0f reads (%.0f hits), %.0f writes, \
                 %.0f bytes written\n"
    (per_pass (fun r -> float_of_int r.io.Io.reads))
    (per_pass (fun r -> float_of_int r.io.Io.hits))
    (per_pass (fun r -> float_of_int r.io.Io.writes))
    (per_pass (fun r -> float_of_int r.io.Io.bytes));
  (match w.wname with
  | "warm-run" ->
      Printf.printf "sim_cycles per pass: %.0f; exec_minstr_per_s: %.3f\n"
        (per_pass (fun r -> Int64.to_float r.cycles))
        (sum (fun r -> Int64.to_float r.instrs) records /. busy_s /. 1e6)
  | "install" ->
      Printf.printf "native_code_bytes per pass: %.0f (%.0f instructions)\n"
        (per_pass (fun r -> float_of_int r.code_bytes))
        (per_pass (fun r -> float_of_int r.static_instrs))
  | _ ->
      let verdicts = List.filter_map (fun r -> r.verdict) records in
      let total f = List.fold_left (fun acc v -> acc + f v) 0 verdicts in
      let certified = total Llee.Tv.certified in
      let defined = total (fun v -> List.length v.Llee.Tv.v_results) in
      Printf.printf "certified_ratio: %.4f (%.0f of %.0f functions per pass)\n"
        (float_of_int certified /. float_of_int (max 1 defined))
        (float_of_int certified /. passes)
        (float_of_int defined /. passes));
  print_result
    [
      ("setup_s", "s", median setup_times);
      ("ops_per_s", "1/s", float_of_int (List.length records) /. busy_s);
      ("latency_ms.p50", "ms", p50_ms);
      ("latency_ms.tail", "ms", tail_ms);
      ("peak_heap_mb", "MiB", peak_heap_mb ());
    ]

(* ---------- traced run: per-layer metrics ---------- *)

(* Where each per-layer metric comes from: the workload whose end-to-end
   result it explains ("set-up" for spans recorded while setting up) and
   the span it sums. "_ms" values are self time per pass. *)
let layer_spans =
  [
    (* install: latency_ms, ops_per_s *)
    ("llva.decode_ms", "install", "llva.decode");
    ("llee.load_ms", "install", "llee.load");
    ("check.lint_ms", "install", "check.lint");
    ("check.ranges_ms", "install", "check.ranges");
    ("check.rel_ms", "install", "check.rel");
    ("x86lite.translate_ms", "install", "x86lite.translate");
    ("sparclite.translate_ms", "install", "sparclite.translate");
    ("llee.frame_ms", "install", "llee.frame");
    ("llee.storage_write_ms", "install", "llee.storage_write");
    (* warm-run: latency_ms, ops_per_s *)
    ("x86lite.sim_ms", "warm-run", "x86lite.sim");
    ("sparclite.sim_ms", "warm-run", "sparclite.sim");
    ("llee.lint_gate_ms", "warm-run", "llee.lint_gate");
    ("llee.storage_read_ms", "warm-run", "llee.storage_read");
    ("llee.unframe_ms", "warm-run", "llee.unframe");
    ("superopt.table_load_ms", "warm-run", "superopt.table_load");
    ("vmem.image_load_ms", "warm-run", "vmem.image_load");
    (* warm-run: setup_s *)
    ("superopt.search_ms", "set-up", "superopt.search");
    ("minic.compile_ms", "set-up", "minic.compile");
    ("transform.optimize_ms", "set-up", "transform.optimize");
    (* certify: latency_ms, ops_per_s *)
    ("interp.run_ms", "certify", "interp.run");
    ("tv.interp_ms", "certify", "tv.interp");
    ("tv.native_ms", "certify", "tv.native");
  ]

let traced_run requested ~seed ~seconds ~work ~reference ~trace_file =
  (* the untraced and the traced part of each workload get half the run
     length each, in whole passes *)
  let half = seconds /. 2.0 in
  Spans.on := true;
  Spans.workload := "set-up";
  let programs = build_programs () in
  let results = Hashtbl.create 4 in
  let overhead = ref (0.0, 0.0, 0) in
  List.iter
    (fun w ->
      Spans.workload := w.wname;
      Spans.op := 0;
      let dir = Filename.concat work ("trace-" ^ w.wname) in
      mkdir_p dir;
      w.fill programs dir;
      let ctx = new_ctx ~seed ~work ~reference dir in
      let pairs = w.pairs (pairs_of programs) in
      let first = Hashtbl.create 64 in
      (* the named workload also runs untraced, first, over the same op
         order; the overhead is the difference on the ops both ran, and
         every traced op must repeat its untraced twin's results *)
      let untraced =
        if w.wname <> requested then []
        else begin
          Spans.on := false;
          let r, _ =
            run_ops ~partial:true ~warm_up:true ctx w pairs ~seconds:half
              ~first w.op
          in
          Spans.on := true;
          r
        end
      in
      let records, _ = run_ops ctx w pairs ~seconds:half ~first w.traced in
      let passes = List.length records / Array.length pairs in
      Hashtbl.replace results w.wname (records, float_of_int (max 1 passes));
      if untraced <> [] then begin
        let n = min (List.length untraced) (List.length records) in
        let ms l = sum (fun r -> r.ms) (List.filteri (fun i _ -> i < n) l) in
        overhead := (ms records, ms untraced, n)
      end)
    workloads;
  Spans.on := false;
  Spans.write trace_file;
  (* self seconds per (workload or "set-up", span name); the "op" spans'
     own self time is the part of each op no layer span covers, and spans
     outside any op (after set-up) are probes *)
  let spans = Spans.self_times () in
  let by_id = Hashtbl.create 4096 in
  List.iter (fun ((s : Spans.t), _) -> Hashtbl.replace by_id s.id s) spans;
  let rec in_op (s : Spans.t) =
    s.name = "op" || (s.parent >= 0 && in_op (Hashtbl.find by_id s.parent))
  in
  let self = Hashtbl.create 64 and op_total = Hashtbl.create 4 in
  let probes = Hashtbl.create 8 in
  let get h k = Option.value ~default:0.0 (Hashtbl.find_opt h k) in
  let add h k v = Hashtbl.replace h k (v +. get h k) in
  List.iter
    (fun ((s : Spans.t), self_s) ->
      let where = if s.op = 0 then "set-up" else s.workload in
      add self (where, s.name) self_s;
      if where <> "set-up" && not (in_op s) then
        Hashtbl.replace probes (where, s.name) ();
      if s.name = "op" then add op_total s.workload (Spans.duration s))
    spans;
  let records w = fst (Hashtbl.find results w) in
  let per_pass w v = v /. snd (Hashtbl.find results w) in
  let layer_ms (where, name) =
    let v = get self (where, name) *. 1e3 in
    if where = "set-up" then v else per_pass where v
  in
  let by_target w target f =
    per_pass w
      (sum
         (fun r -> if Filename.basename r.k = target then f r else 0.0)
         (records w))
  in
  let io w f = per_pass w (sum (fun r -> float_of_int (f r.io)) (records w)) in
  let cnt w name = per_pass w (get counts name) in
  let minstr_per_s instrs ms = instrs /. ms /. 1e3 in
  let target_metrics target =
    let instrs =
      by_target "warm-run" target (fun r -> Int64.to_float r.instrs)
    in
    [
      ( target ^ ".code_bytes", "bytes",
        by_target "install" target (fun r -> float_of_int r.code_bytes) );
      ( target ^ ".static_instrs", "count",
        by_target "install" target (fun r -> float_of_int r.static_instrs) );
      (target ^ ".native_instrs", "count", instrs);
      ( target ^ ".cycles", "count",
        by_target "warm-run" target (fun r -> Int64.to_float r.cycles) );
      ( target ^ ".sim_minstr_per_s", "Minstr/s",
        minstr_per_s instrs (layer_ms ("warm-run", target ^ ".sim")) );
    ]
  in
  let vectors = cnt "certify" "tv.vectors" in
  let inconclusive = cnt "certify" "tv.inconclusive" in
  let traced_ms, untraced_ms, n_common = !overhead in
  let unaccounted w =
    ( w ^ ".unaccounted_pct", "%",
      100.0 *. get self (w, "op") /. get op_total w )
  in
  let metrics =
    List.map
      (fun (m, where, name) -> (m, "ms", layer_ms (where, name)))
      layer_spans
    @ [
        ("check.range_sweeps", "count", cnt "install" "check.range_sweeps");
        ("check.rel_facts", "count", cnt "install" "check.rel_facts");
        ("llee.storage_writes", "count", io "install" (fun c -> c.Io.writes));
        ("llee.bytes_written", "bytes", io "install" (fun c -> c.Io.bytes));
        ("llee.storage_reads", "count", io "warm-run" (fun c -> c.Io.reads));
        ( "llee.cache_hit_ratio", "ratio",
          io "warm-run" (fun c -> c.Io.hits)
          /. io "warm-run" (fun c -> c.Io.reads) );
      ]
    @ target_metrics "x86lite" @ target_metrics "sparclite"
    @ [
        ("superopt.rewrites", "count", get counts "superopt.rewrites");
        ("interp.steps", "count", cnt "certify" "interp.steps");
        ( "interp.minstr_per_s", "Minstr/s",
          minstr_per_s (cnt "certify" "interp.steps")
            (layer_ms ("certify", "interp.run")) );
        ("tv.vectors", "count", vectors);
        ("tv.inconclusive", "count", inconclusive);
        ("tv.conclusive_ratio", "ratio", (vectors -. inconclusive) /. vectors);
        ("tv.certified_funcs", "count", cnt "certify" "tv.certified_funcs");
        ("tv.skipped_funcs", "count", cnt "certify" "tv.skipped_funcs");
        ( "trace.overhead_ms", "ms",
          (traced_ms -. untraced_ms) /. float_of_int (max 1 n_common) );
        ( "trace.overhead_pct", "%",
          100.0 *. (traced_ms -. untraced_ms) /. untraced_ms );
        unaccounted "warm-run";
        unaccounted "install";
        unaccounted "certify";
      ]
  in
  Printf.printf "perfbench workload=%s seed=%d seconds=%g trace=1 (spans: %s)\n"
    requested seed seconds trace_file;
  Printf.printf
    "tracing overhead on %s: %d ops, traced %.1f ms, untraced %.1f ms\n"
    requested n_common traced_ms untraced_ms;
  Printf.printf "%-10s %-24s %12s %8s\n" "workload" "span" "self ms/pass"
    "share";
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) self []
  |> List.sort compare
  |> List.iter (fun ((where, name), s) ->
         let share =
           if Hashtbl.mem probes (where, name) then "probe"
           else if where = "set-up" then ""
           else Printf.sprintf "%7.2f%%" (100.0 *. s /. get op_total where)
         in
         Printf.printf "%-10s %-24s %12.3f %8s\n" where name
           (layer_ms (where, name)) share);
  print_result metrics

(* ---------- main ---------- *)

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10.0 in
  let trace = ref 0 and data = ref "perfbench" and write_ref = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME warm-run|install|certify");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S how long to measure");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1)");
      ("--data", Arg.Set_string data, "DIR directory holding reference.tsv");
      ("--write-reference", Arg.Set_string write_ref, "FILE regenerate it");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  if !write_ref <> "" then write_reference !write_ref
  else
    match List.find_opt (fun w -> w.wname = !workload) workloads with
    | None ->
        prerr_endline ("unknown workload: " ^ !workload);
        exit 2
    | Some w ->
        let reference =
          load_reference (Filename.concat !data "reference.tsv")
        in
        let work =
          Filename.concat ".perfbench-work" (string_of_int (Unix.getpid ()))
        in
        mkdir_p work;
        Fun.protect
          ~finally:(fun () -> rm_rf work)
          (fun () ->
            if !trace = 0 then
              end_to_end w ~seed:!seed ~seconds:!seconds ~work ~reference
            else begin
              mkdir_p ".perfbench-trace";
              traced_run w.wname ~seed:!seed ~seconds:!seconds ~work ~reference
                ~trace_file:
                  (Printf.sprintf ".perfbench-trace/%s-seed%d.jsonl" w.wname
                     !seed)
            end)
