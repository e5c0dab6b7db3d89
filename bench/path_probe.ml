(* Committee-path ablation probe: times one (n, path, adversary) point
   in isolation, unlike engine_bench's sweep where earlier configs'
   heap state bleeds into later points. Used to attribute sweep-level
   differences to the committee path itself.

   Usage: dune exec bench/path_probe.exe -- <n> <inc|scan>
            <no-fault|killer> [--alloc-breakdown]

   --alloc-breakdown additionally attaches the engine's alloc probe to
   the timed runs and reports per-phase minor-word deltas — emission /
   delivery / consumption / bookkeeping — so a perf investigation
   starts from attribution, not guesswork. Consumption is the resume
   bracket net of protocol emission (see [Engine.alloc_probe]). *)
(* Stdout reporting is this executable's purpose; relax the library
   print rule for the whole file rather than annotating every line. *)
[@@@lint.allow "D5"]


module E = Repro_renaming.Experiment
module Runner = Repro_renaming.Runner
module CR = Repro_renaming.Crash_renaming

let () =
  Repro_renaming.Parallel.tune_gc ();
  let usage () =
    prerr_endline
      "usage: path_probe <n> <inc|scan> <no-fault|killer> \
       [--alloc-breakdown]";
    exit 2
  in
  let breakdown =
    Array.length Sys.argv = 5 && Sys.argv.(4) = "--alloc-breakdown"
  in
  if Array.length Sys.argv <> 4 && not breakdown then usage ();
  let n = int_of_string Sys.argv.(1) in
  let path =
    match Sys.argv.(2) with
    | "inc" -> CR.Incremental
    | "scan" -> CR.Linear_scan
    | _ -> usage ()
  in
  let adversary =
    match Sys.argv.(3) with
    | "no-fault" -> E.No_crash
    | "killer" -> E.Committee_killer (n / 4)
    | _ -> usage ()
  in
  let probe =
    if breakdown then Some (Repro_sim.Engine.alloc_probe ()) else None
  in
  let run seed =
    E.run_crash ~committee_path:path ~protocol:E.This_work_crash ~n
      ~namespace:(64 * n) ~adversary ?alloc_probe:probe ~seed ()
  in
  let warm = run 41 in
  if not warm.Runner.correct then failwith "path_probe: incorrect run";
  (* the warm-up's words are not part of the report *)
  Option.iter
    (fun (p : Repro_sim.Engine.alloc_probe) ->
      p.ap_emit <- 0.;
      p.ap_deliver <- 0.;
      p.ap_resume <- 0.;
      p.ap_book <- 0.)
    probe;
  Gc.full_major ();
  (* lint: allow D1 — bench wall-clock, reported not replayed *)
  let t0 = Unix.gettimeofday () in
  let rounds = ref 0 in
  for i = 1 to 2 do
    let a = run (41 + i) in
    rounds := !rounds + a.Runner.rounds
  done;
  (* lint: allow D1 — bench wall-clock, reported not replayed *)
  let dt = Unix.gettimeofday () -. t0 in
  Printf.printf "%-8s %-8s n=%-6d %8.1f rounds/s\n" Sys.argv.(2)
    Sys.argv.(3) n
    (float_of_int !rounds /. dt);
  Option.iter
    (fun (p : Repro_sim.Engine.alloc_probe) ->
      let mw x = x /. 1e6 in
      Printf.printf
        "alloc-breakdown (Mwords, 2 runs): emission %.2f  delivery %.2f  \
         consumption %.2f  bookkeeping %.2f\n"
        (mw p.ap_emit) (mw p.ap_deliver)
        (mw (p.ap_resume -. p.ap_emit))
        (mw p.ap_book))
    probe
