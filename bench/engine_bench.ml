(* Engine hot-path benchmark: rounds/sec and allocation for the two
   paths every experiment exercises — the no-fault run and the
   committee-killer run (E2's adversary). Deliberately built on the
   public [Experiment] API only, so the same binary measures any engine
   implementation and successive PRs can track the trajectory.

   Usage:
     dune exec bench/engine_bench.exe                  # full sweep
     dune exec bench/engine_bench.exe -- --smoke       # CI smoke mode
     dune exec bench/engine_bench.exe -- --smoke-large # n=1024 no-fault
     dune exec bench/engine_bench.exe -- --out F.json  # write JSON to F
     dune exec bench/engine_bench.exe -- --trace F     # + one traced run
     dune exec bench/engine_bench.exe -- --check-against BENCH_engine.json
                                       # fail on >20% alloc or >15% rps
                                       # regression

   The JSON report (default BENCH_engine.json in the working directory)
   is a flat list of measurements; the committed BENCH_engine.json at
   the repo root additionally keeps the pre-overhaul, pre-fast-path and
   pre-flatten numbers for comparison. [--check-against] compares each
   fresh measurement against the committed row with the same (path, n)
   and exits 1 on a regression: alloc_mwords_per_run more than
   [--tolerance] (default 0.20) above the committed value — the CI
   guard that broadcast delivery stays O(n), not O(n²), in allocations —
   or rounds_per_sec more than [--rps-tolerance] (default 0.15) below
   it — the guard that the committee fast path stays fast. Throughput
   on shared CI runners is noisy, so CI passes a wider
   [--rps-tolerance] than the local default. *)
(* Stdout reporting is this executable's purpose; relax the library
   print rule for the whole file rather than annotating every line. *)
[@@@lint.allow "D5"]


module E = Repro_renaming.Experiment
module Runner = Repro_renaming.Runner

type measurement = {
  path : string;  (* "no-fault" | "committee-killer" *)
  n : int;
  runs : int;
  wall_s : float;
  rounds : int;  (* total across [runs] *)
  messages : int;
  rounds_per_sec : float;
  alloc_mwords : float;  (* words allocated per run, in millions *)
}

(* lint: allow D1 — bench wall-clock, reported not replayed *)
let now () = Unix.gettimeofday ()

let adversary_of_path ~n = function
  | "no-fault" -> E.No_crash
  | "committee-killer" -> E.Committee_killer (n / 4)
  | p -> invalid_arg ("engine_bench: unknown path " ^ p)

let one_run ~path ~n ~seed =
  E.run_crash ~protocol:E.This_work_crash ~n ~namespace:(64 * n)
    ~adversary:(adversary_of_path ~n path) ~seed ()

let measure ~path ~n ~runs =
  (* Warm-up run: page in code, stabilise the GC, and sanity-check the
     execution before the timed loop. *)
  let warm = one_run ~path ~n ~seed:41 in
  if not warm.Runner.correct then
    failwith (Printf.sprintf "engine_bench: incorrect run (%s n=%d)" path n);
  Gc.full_major ();
  let allocated_words () =
    let s = Gc.quick_stat () in
    s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words
  in
  let words0 = allocated_words () in
  let t0 = now () in
  let rounds = ref 0 and messages = ref 0 in
  for i = 1 to runs do
    let a = one_run ~path ~n ~seed:(41 + i) in
    rounds := !rounds + a.Runner.rounds;
    messages := !messages + a.Runner.messages
  done;
  let wall_s = now () -. t0 in
  let words1 = allocated_words () in
  {
    path;
    n;
    runs;
    wall_s;
    rounds = !rounds;
    messages = !messages;
    rounds_per_sec = float_of_int !rounds /. wall_s;
    alloc_mwords = (words1 -. words0) /. float_of_int runs /. 1e6;
  }

let json_of_measurement m =
  Printf.sprintf
    {|    {"path": "%s", "n": %d, "runs": %d, "wall_s": %.4f, "rounds": %d, "messages": %d, "rounds_per_sec": %.1f, "alloc_mwords_per_run": %.3f}|}
    m.path m.n m.runs m.wall_s m.rounds m.messages m.rounds_per_sec
    m.alloc_mwords

let write_json ~out ~mode ms =
  let oc = open_out out in
  Printf.fprintf oc
    "{\n  \"schema\": \"engine-bench/v1\",\n  \"mode\": \"%s\",\n  \
     \"measurements\": [\n%s\n  ]\n}\n"
    mode
    (String.concat ",\n" (List.map json_of_measurement ms));
  close_out oc

(* Committed-baseline lookup for [--check-against]: whitespace-normalise
   the committed file (it is pretty-printed; this binary writes one row
   per line — both collapse to the same token stream), cut everything
   from the first historical-lineage key on so only the current
   measurements are consulted, then scan for the fixed field order the
   writer guarantees. Not a JSON parser on purpose: the format is ours,
   and a scanner keeps the bench binary dependency-free. *)
let committed_field ~file ~path ~n ~key =
  let raw = In_channel.with_open_bin file In_channel.input_all in
  let b = Buffer.create (String.length raw) in
  String.iter
    (fun c -> if c <> ' ' && c <> '\n' && c <> '\t' && c <> '\r' then
        Buffer.add_char b c)
    raw;
  let s = Buffer.contents b in
  (* Naive substring search; inputs are small. *)
  let find_sub s needle =
    let nl = String.length needle and sl = String.length s in
    let rec go i =
      if i + nl > sl then None
      else if String.sub s i nl = needle then Some i
      else go (i + 1)
    in
    go 0
  in
  let cut_at needle s =
    match find_sub s needle with Some i -> String.sub s 0 i | None -> s
  in
  let s =
    cut_at "\"pre_overhaul\""
      (cut_at "\"pre_fastpath\""
         (cut_at "\"pre_flatten\"" (cut_at "\"pre_intern\"" s)))
  in
  match find_sub s (Printf.sprintf "{\"path\":\"%s\",\"n\":%d," path n) with
  | None -> None
  | Some i -> (
      let rest = String.sub s i (String.length s - i) in
      let key = "\"" ^ key ^ "\":" in
      match find_sub rest key with
      | None -> None
      | Some j ->
          let j = j + String.length key in
          let sl = String.length rest in
          let k = ref j in
          while
            !k < sl
            && (match rest.[!k] with
               | '0' .. '9' | '.' | '-' | 'e' | 'E' | '+' -> true
               | _ -> false)
          do
            incr k
          done;
          float_of_string_opt (String.sub rest j (!k - j)))

let check_against ~file ~tolerance ~rps_tolerance ms =
  let failures = ref 0 in
  List.iter
    (fun m ->
      (match committed_field ~file ~path:m.path ~n:m.n ~key:"alloc_mwords_per_run" with
      | None ->
          Printf.printf "check: %-16s n=%-5d no committed baseline, skipped\n"
            m.path m.n
      | Some committed ->
          let limit = committed *. (1. +. tolerance) in
          if m.alloc_mwords > limit then begin
            incr failures;
            Printf.printf
              "check: %-16s n=%-5d FAIL  %.3f Mwords/run > %.3f (committed \
               %.3f +%.0f%%)\n"
              m.path m.n m.alloc_mwords limit committed (100. *. tolerance)
          end
          else
            Printf.printf
              "check: %-16s n=%-5d ok    %.3f Mwords/run <= %.3f (committed \
               %.3f)\n"
              m.path m.n m.alloc_mwords limit committed);
      match committed_field ~file ~path:m.path ~n:m.n ~key:"rounds_per_sec" with
      | None -> ()
      | Some committed ->
          let floor = committed *. (1. -. rps_tolerance) in
          if m.rounds_per_sec < floor then begin
            incr failures;
            Printf.printf
              "check: %-16s n=%-5d FAIL  %.1f rounds/s < %.1f (committed \
               %.1f -%.0f%%)\n"
              m.path m.n m.rounds_per_sec floor committed
              (100. *. rps_tolerance)
          end
          else
            Printf.printf
              "check: %-16s n=%-5d ok    %.1f rounds/s >= %.1f (committed \
               %.1f)\n"
              m.path m.n m.rounds_per_sec floor committed)
    ms;
  if !failures > 0 then begin
    Printf.printf "check: %d regression(s) vs %s\n" !failures file;
    exit 1
  end

(* One fixed-seed committee-killer run recorded as a run-trace/v1 JSONL
   file — with per-round wall-clock and allocation, since a bench trace
   is for profiling, not byte-compared (trace_cli diff strips the timing
   fields, so it still diffs clean against an untimed run). *)
let write_trace ~path ~n file =
  let t =
    Repro_obs.Trace.create ~timings:true
      ~meta:
        [
          ("algo", `Str "this-work-crash"); ("path", `Str path); ("n", `Int n);
          ("namespace", `Int (64 * n)); ("seed", `Int 41);
        ]
      ()
  in
  let a =
    E.run_crash ~trace:t ~protocol:E.This_work_crash ~n ~namespace:(64 * n)
      ~adversary:(adversary_of_path ~n path) ~seed:41 ()
  in
  if not a.Runner.correct then
    failwith (Printf.sprintf "engine_bench: incorrect traced run (n=%d)" n);
  Repro_obs.Trace.write_file t file;
  Printf.printf "wrote %s (%d round records)\n" file
    (Repro_obs.Trace.rounds_recorded t)

let () =
  Repro_renaming.Parallel.tune_gc ();
  let mode = ref `Full and out = ref "BENCH_engine.json" in
  let trace = ref None in
  let check = ref None and tolerance = ref 0.20 in
  let rps_tolerance = ref 0.15 in
  let rec parse = function
    | [] -> ()
    | "--smoke" :: rest ->
        mode := `Smoke;
        parse rest
    | "--smoke-large" :: rest ->
        mode := `Smoke_large;
        parse rest
    | "--smoke-xl" :: rest ->
        mode := `Smoke_xl;
        parse rest
    | "--out" :: f :: rest ->
        out := f;
        parse rest
    | "--trace" :: f :: rest ->
        trace := Some f;
        parse rest
    | "--check-against" :: f :: rest ->
        check := Some f;
        parse rest
    | "--tolerance" :: t :: rest ->
        tolerance := float_of_string t;
        parse rest
    | "--rps-tolerance" :: t :: rest ->
        rps_tolerance := float_of_string t;
        parse rest
    | a :: _ -> invalid_arg ("engine_bench: unknown argument " ^ a)
  in
  parse (List.tl (Array.to_list Sys.argv));
  let both = [ "no-fault"; "committee-killer" ] in
  (* The full sweep runs committee-killer up to n=2048. The killer is
     observed only until its budget is spent, but each round before
     that still materializes one envelope record per message (about n²
     a round) for the observation; at n=4096 that is a heap of hundreds
     of megabytes per round, which says nothing new, so only the
     no-fault scaling point runs there. *)
  let configs =
    match !mode with
    | `Smoke -> [ (64, 3, both) ]
    | `Smoke_large -> [ (1024, 1, [ "no-fault" ]) ]
    | `Smoke_xl -> [ (8192, 1, [ "no-fault" ]) ]
    | `Full ->
        [
          (128, 8, both);
          (256, 5, both);
          (512, 3, both);
          (1024, 2, both);
          (2048, 1, both);
          (4096, 1, [ "no-fault" ]);
          (8192, 1, [ "no-fault" ]);
          (16384, 1, [ "no-fault" ]);
        ]
  in
  let ms =
    List.concat_map
      (fun (n, runs, paths) ->
        List.map
          (fun path ->
            let m = measure ~path ~n ~runs in
            Printf.printf
              "%-16s n=%-5d %8.1f rounds/s  %10.2f Mwords/run  (%d runs, \
               %.2f s)\n%!"
              m.path m.n m.rounds_per_sec m.alloc_mwords m.runs m.wall_s;
            m)
          paths)
      configs
  in
  let mode_name =
    match !mode with
    | `Smoke -> "smoke"
    | `Smoke_large -> "smoke-large"
    | `Smoke_xl -> "smoke-xl"
    | `Full -> "full"
  in
  write_json ~out:!out ~mode:mode_name ms;
  Printf.printf "wrote %s\n" !out;
  (match !check with
  | Some file ->
      check_against ~file ~tolerance:!tolerance
        ~rps_tolerance:!rps_tolerance ms
  | None -> ());
  match !trace with
  | Some file ->
      let n = match !mode with `Full -> 128 | _ -> 64 in
      write_trace ~path:"committee-killer" ~n file
  | None -> ()
