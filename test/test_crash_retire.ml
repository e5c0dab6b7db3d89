(* A crash adversary retires by returning [Final]: the engine applies
   that step's orders and never calls the adversary again. Each canned
   adversary retires as soon as nothing it could still do is left, so
   retiring must be invisible: a run with the adversary must be the run
   with the same adversary wrapped so that it never retires (every
   [Final o] becomes [Orders o]), byte for byte in the run trace.

   Every canned adversary is checked on the three crash protocols at
   n=64, at 1 and 4 shards. Each schedule ends, and each budget is
   spent, before the shortest of the runs does (flooding runs f+1
   rounds), so every run retires early. An engine that dropped a
   [Final] step's orders, or an adversary that retired a round early,
   loses a crash the never-retiring twin still makes, and the traces
   differ. *)

module E = Repro_renaming.Experiment
module H = Crash_harness
module Trace = Repro_obs.Trace
module Tools = Repro_obs.Trace_tools
module Runner = Repro_renaming.Runner

let n = 64
let namespace = 64 * n
let seed = 5

let protocols = [ E.This_work_crash; E.Halving_baseline; E.Flooding_baseline ]

let adversaries () =
  let ids = H.ids ~n ~namespace ~seed in
  [
    ("targeted", H.Targeted [ (0, ids.(3)); (2, ids.(17)); (2, ids.(40)) ]);
    ( "scripted all",
      H.Canned (E.Scripted_crashes [ (0, ids.(5), `All); (1, ids.(30), `All) ])
    );
    ( "scripted nothing",
      H.Canned
        (E.Scripted_crashes [ (1, ids.(9), `Nothing); (1, ids.(50), `Nothing) ])
    );
    ( "scripted subset",
      H.Canned
        (E.Scripted_crashes
           [ (0, ids.(11), `Subset 77); (1, ids.(60), `Subset 5) ]) );
    ("random mid-send", H.Random { f = 8; horizon = 6 });
    ("patient", H.Canned (E.Patient_killer 8));
    ("killer", H.Canned (E.Committee_killer 8));
    ("killer partial", H.Canned (E.Committee_killer_partial 8));
  ]

let traced ~shards ~protocol adversary =
  let t = Trace.create () in
  let a =
    H.run ~trace:t ~shards ~protocol ~n ~namespace ~adversary:(Some adversary)
      ~seed ()
  in
  (Trace.contents t, a)

let same_assessment name (a : Runner.assessment) (b : Runner.assessment) =
  Alcotest.(check (list (pair int int)))
    (name ^ ": assignments") a.assignments b.assignments;
  Alcotest.(check (list int))
    (name ^ ": rounds, messages, bits, crashes")
    [ a.rounds; a.messages; a.bits; a.crash_cost ]
    [ b.rounds; b.messages; b.bits; b.crash_cost ];
  Alcotest.(check bool) (name ^ ": same correctness") a.correct b.correct

let test_retiring_is_invisible () =
  List.iter
    (fun (label, adversary) ->
      List.iter
        (fun protocol ->
          List.iter
            (fun shards ->
              let name =
                Printf.sprintf "%s, %s, shards %d" label
                  (E.crash_protocol_name protocol)
                  shards
              in
              let c_retire = H.counter () and c_never = H.counter () in
              let tr, a =
                traced ~shards ~protocol (H.Counted (c_retire, adversary))
              in
              let tr_never, a_never =
                traced ~shards ~protocol
                  (H.Counted (c_never, H.Never_retire adversary))
              in
              Alcotest.(check string) (name ^ ": trace bytes") tr_never tr;
              same_assessment name a_never a;
              Alcotest.(check int)
                (name ^ ": never-retiring twin observed every round")
                a.rounds c_never.calls;
              Alcotest.(check bool)
                (Printf.sprintf "%s: retired early (%d of %d rounds observed)"
                   name c_retire.calls c_never.calls)
                true
                (c_retire.calls < c_never.calls))
            [ 1; 4 ])
        protocols)
    (adversaries ())

(* The last round whose trace record lists a crash. *)
let last_crash_round contents =
  List.fold_left
    (fun acc line ->
      match
        (Tools.int_field line "round", Tools.int_list_field line "crashes")
      with
      | Some r, Some (_ :: _) -> max acc r
      | _ -> acc)
    (-1) (Tools.round_lines contents)

(* [renaming_cli crash -n 64 -f 8 --adversary killer --seed 7]'s
   adversary is called in every round up to the one with its last
   order, and never again. [Crash.none] is called once. *)
let test_call_counts () =
  let n = 64 and f = 8 and seed = 7 in
  let namespace = 64 * n in
  let meta = [ ("algo", `Str "this-work-crash") ] in
  let reference = Trace.create ~meta () in
  ignore
    (E.run_crash ~trace:reference ~protocol:E.This_work_crash ~n ~namespace
       ~adversary:(E.Committee_killer f) ~seed ());
  let c = H.counter () and t = Trace.create ~meta () in
  ignore
    (H.run ~trace:t ~protocol:E.This_work_crash ~n ~namespace
       ~adversary:(Some (H.Counted (c, H.Canned (E.Committee_killer f))))
       ~seed ());
  Alcotest.(check string)
    "the counted run is Experiment's run" (Trace.contents reference)
    (Trace.contents t);
  Alcotest.(check int)
    "last order is the last crash" (last_crash_round (Trace.contents t))
    c.last_order_round;
  Alcotest.(check bool)
    "the killer ordered crashes" true (c.last_order_round >= 0);
  Alcotest.(check int) "killer: calls = round of last order + 1"
    (c.last_order_round + 1) c.calls;
  let c = H.counter () in
  ignore
    (H.run ~protocol:E.This_work_crash ~n ~namespace
       ~adversary:(Some (H.Counted (c, H.Crash_none)))
       ~seed ());
  Alcotest.(check int) "Crash.none: one call" 1 c.calls

let suite =
  ( "crash-retire",
    [
      Alcotest.test_case "retiring is invisible" `Quick
        test_retiring_is_invisible;
      Alcotest.test_case "calls stop at the last order" `Quick test_call_counts;
    ] )
