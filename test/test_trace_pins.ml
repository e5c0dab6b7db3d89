(* Golden pins of whole crash-run traces, byte for byte. Each digest is
   of the run-trace/v1 file that

     renaming_cli crash -n 256 -f 64 --seed 3 --adversary KIND --trace F

   wrote while every canned crash adversary was still observed in every
   round of the run. An adversary now tells the engine when it has
   nothing left to do, and the engine stops observing it; these pins
   say that retiring changed nothing a run records: crash rounds and
   victims, mid-send subsets, per-round messages, bits and size
   histograms, decisions.

   The trace is built here as renaming_cli builds it (same meta, same
   [Experiment.run_crash]), so the bytes are the file's bytes. *)

module E = Repro_renaming.Experiment
module Trace = Repro_obs.Trace

let n = 256
let f = 64
let seed = 3

let trace_of ~kind adversary =
  let namespace = 64 * n in
  let meta =
    [
      ("algo", `Str "this-work-crash"); ("n", `Int n);
      ("namespace", `Int namespace); ("f", `Int f);
      ("adversary", `Str kind); ("seed", `Int seed);
    ]
  in
  let t = Trace.create ~meta () in
  let a =
    E.run_crash ~trace:t ~protocol:E.This_work_crash ~n ~namespace ~adversary
      ~seed ()
  in
  Alcotest.(check bool)
    (kind ^ ": correct") true a.Repro_renaming.Runner.correct;
  Trace.contents t

let pin kind adversary ~bytes ~digest () =
  let contents = trace_of ~kind adversary in
  Alcotest.(check int) (kind ^ ": trace length") bytes (String.length contents);
  Alcotest.(check string)
    (kind ^ ": trace digest") digest
    (Digest.to_hex (Digest.string contents))

let suite =
  ( "trace_pins",
    [
      Alcotest.test_case "crash n=256 f=64 seed 3: random" `Quick
        (pin "random" (E.Random_crashes f) ~bytes:15_311
           ~digest:"e4d5d5fddefc97bc640a02f54d55a133");
      Alcotest.test_case "crash n=256 f=64 seed 3: killer" `Quick
        (pin "killer" (E.Committee_killer f) ~bytes:14_527
           ~digest:"bae341eed52323eba3349a0b697c9db2");
      Alcotest.test_case "crash n=256 f=64 seed 3: killer-partial" `Quick
        (pin "killer-partial" (E.Committee_killer_partial f) ~bytes:14_527
           ~digest:"3506d23220a6e71f6eae509b87e08a12");
      Alcotest.test_case "crash n=256 f=64 seed 3: patient" `Quick
        (pin "patient" (E.Patient_killer f) ~bytes:14_507
           ~digest:"b07e8833f33f233ad6812b40f195d491");
    ] )
