(* E8: Bechamel wall-clock microbenchmarks — each protocol end to end at
   small n, two primitives (fingerprint, bitvec rank) and the parallel
   trial runner. Split from bench/main.exe, whose tables CI regenerates
   and diffs against results/: this suite writes no table, and its
   numbers are wall-clock, so it runs only on request:

     dune exec bench/micro_bench.exe [-- --domains N] *)
(* Stdout reporting is this executable's purpose; relax the library
   print rule for the whole file rather than annotating every line. *)
[@@@lint.allow "D5"]

module E = Repro_renaming.Experiment

let bechamel_tests () =
  let open Bechamel in
  let fingerprint_test =
    let key = Repro_crypto.Fingerprint.key_of_seed 1 in
    let bv = Repro_util.Bitvec.create 65536 in
    let seg = Repro_util.Interval.make 1 65536 in
    Test.make ~name:"fingerprint 64k-bit segment"
      (Staged.stage (fun () -> Repro_crypto.Fingerprint.of_segment key bv seg))
  in
  let rank_test =
    let bv = Repro_util.Bitvec.create 65536 in
    List.iter
      (fun i -> Repro_util.Bitvec.set bv ((i * 17 mod 65536) + 1) true)
      (List.init 1000 Fun.id);
    Test.make ~name:"bitvec rank (64k bits)"
      (Staged.stage (fun () -> Repro_util.Bitvec.rank bv 60_000))
  in
  let crash_test =
    Test.make ~name:"crash renaming end-to-end (n=64)"
      (Staged.stage (fun () ->
           E.run_crash ~protocol:E.This_work_crash ~n:64 ~namespace:4096
             ~adversary:E.No_crash ~seed:800 ()))
  in
  let byz_test =
    Test.make ~name:"byzantine renaming end-to-end (n=32)"
      (Staged.stage (fun () ->
           E.run_byz ~protocol:E.This_work_byz ~n:32 ~namespace:1024
             ~adversary:E.No_byz ~seed:801 ()))
  in
  let flooding_test =
    Test.make ~name:"flooding baseline end-to-end (n=64)"
      (Staged.stage (fun () ->
           E.run_crash ~protocol:E.Flooding_baseline ~n:64 ~namespace:4096
             ~adversary:E.No_crash ~seed:802 ()))
  in
  let parallel_trials_test =
    (* Exercises the domain fan-out of the trial runner end-to-end; the
       aggregates are bit-identical for any [--domains] value. *)
    Test.make ~name:"averaged 4 trials via parallel runner (n=64)"
      (Staged.stage (fun () ->
           E.averaged ~trials:4 ~seed:803 (fun ~seed ->
               E.run_crash ~protocol:E.This_work_crash ~n:64 ~namespace:4096
                 ~adversary:E.No_crash ~seed ())))
  in
  Test.make_grouped ~name:"renaming"
    [
      fingerprint_test;
      rank_test;
      crash_test;
      byz_test;
      flooding_test;
      parallel_trials_test;
    ]

let run_bechamel () =
  let open Bechamel in
  let open Toolkit in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 1.0) ~stabilize:true ()
  in
  let raw = Benchmark.all cfg instances (bechamel_tests ()) in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  print_endline "E8 — wall-clock microbenchmarks (Bechamel, monotonic clock)";
  print_endline "===========================================================";
  (* Bechamel returns a hashtable; print in sorted name order so the
     report does not vary with hash order (OCAMLRUNPARAM=R). *)
  Hashtbl.fold (fun name result acc -> (name, result) :: acc) results []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  |> List.iter (fun (name, result) ->
         match Analyze.OLS.estimates result with
         | Some [ est ] -> Printf.printf "%-44s %12.0f ns/run\n" name est
         | _ -> Printf.printf "%-44s (no estimate)\n" name)

let () =
  (* --domains N pins the trial runner's domain count, as in
     bench/main.exe. *)
  let rec parse = function
    | [] -> ()
    | "--domains" :: d :: rest ->
        Repro_renaming.Parallel.set_domains (int_of_string d);
        parse rest
    | a :: _ -> invalid_arg ("bench/micro_bench: unknown argument " ^ a)
  in
  parse (List.tl (Array.to_list Sys.argv));
  Repro_renaming.Parallel.tune_gc ();
  run_bechamel ()
