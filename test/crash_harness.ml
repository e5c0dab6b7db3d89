(* Crash-model runs of the three crash protocols with adversaries
   [Experiment] has no variant for.

   [Experiment.run_crash] attaches the adversary its variant names and
   nothing else. The tests here also wrap adversaries (count the
   engine's calls, keep one from ever retiring) and attach ones that
   only observe. Everything else about a run is derived as
   [Experiment.run_crash] derives it (identities, the adversary's rng,
   the random adversary's horizon, the flooding baseline's rounds, the
   trace), so a run of [Canned a] here is the run
   [Experiment.run_crash ~adversary:a] makes, trace bytes included. *)

module E = Repro_renaming.Experiment
module Runner = Repro_renaming.Runner
module Rng = Repro_util.Rng
module CR = Repro_renaming.Crash_renaming
module HR = Repro_renaming.Halving_renaming
module FR = Repro_renaming.Flooding_renaming

type counter = {
  mutable calls : int;
  mutable last_order_round : int;  (** [-1] until a step carries orders *)
}

let counter () = { calls = 0; last_order_round = -1 }

type adversary =
  | Canned of E.crash_adversary  (** built as [Experiment] builds it *)
  | Crash_none  (** the engine's [Crash.none] *)
  | Targeted of (int * int) list  (** {!targeted}'s schedule *)
  | Random of { f : int; horizon : int }
      (** [Crash.random], mid-send crashes at its default rate *)
  | Observer  (** observes every round, never orders, never retires *)
  | Never_retire of adversary  (** every [Final o] becomes [Orders o] *)
  | Counted of counter * adversary  (** records the engine's calls *)

(* The crash budget the flooding baseline is told to tolerate. *)
let rec budget = function
  | Canned a -> E.crash_adversary_f a
  | Targeted schedule -> List.length schedule
  | Random { f; _ } -> f
  | Crash_none | Observer -> 0
  | Never_retire a | Counted (_, a) -> budget a

let ids ~n ~namespace ~seed = E.random_ids ~seed:(seed lxor 0x1d5) ~namespace ~n

(* [targeted [(round, victim); ...]] as a [Crash.scripted] schedule:
   each victim crashes cleanly at its round, its whole final-round
   outbox delivered. *)
let targeted schedule = List.map (fun (round, victim) -> (round, victim, `All)) schedule

(* The part of an engine instance's adversary API the wrappers use. *)
module type NET = sig
  type envelope

  type observation = {
    obs_round : int;
    obs_alive : int list;
    obs_outboxes : (int * envelope list) list;
    obs_crashed : int list;
  }

  type crash_order
  type crash_step = Orders of crash_order list | Final of crash_order list
  type crash_adversary = observation -> crash_step

  module Crash : sig
    val none : crash_adversary

    val scripted :
      (int * int * [ `All | `Nothing | `Subset of int ]) list ->
      crash_adversary

    val random :
      rng:Rng.t ->
      f:int ->
      ?horizon:int ->
      ?mid_send_prob:float ->
      unit ->
      crash_adversary

    val patient_killer : budget:int -> unit -> crash_adversary

    val committee_killer :
      rng:Rng.t -> budget:int -> ?partial:bool -> unit -> crash_adversary
  end
end

module Build (Net : NET) = struct
  let rec make ~rng ~n : adversary -> Net.crash_adversary option = function
    | Canned E.No_crash -> None
    | Canned (E.Random_crashes f) ->
        Some (Net.Crash.random ~rng ~f ~horizon:(E.crash_horizon ~n ~f) ())
    | Canned (E.Committee_killer f) ->
        Some (Net.Crash.committee_killer ~rng ~budget:f ())
    | Canned (E.Committee_killer_partial f) ->
        Some (Net.Crash.committee_killer ~rng ~budget:f ~partial:true ())
    | Canned (E.Patient_killer f) ->
        Some (Net.Crash.patient_killer ~budget:f ())
    | Canned (E.Scripted_crashes events) -> Some (Net.Crash.scripted events)
    | Crash_none -> Some Net.Crash.none
    | Targeted schedule -> Some (Net.Crash.scripted (targeted schedule))
    | Random { f; horizon } -> Some (Net.Crash.random ~rng ~f ~horizon ())
    | Observer -> Some (fun _ -> Net.Orders [])
    | Never_retire a ->
        Option.map
          (fun adv obs ->
            match adv obs with Net.Final o -> Net.Orders o | step -> step)
          (make ~rng ~n a)
    | Counted (c, a) ->
        Option.map
          (fun adv (obs : Net.observation) ->
            c.calls <- c.calls + 1;
            let step = adv obs in
            (match step with
            | Net.Orders [] | Net.Final [] -> ()
            | Net.Orders _ | Net.Final _ ->
                c.last_order_round <- obs.obs_round);
            step)
          (make ~rng ~n a)
end

(* [adversary = None] runs without [?crash]. *)
let run ?trace ?shards ~protocol ~n ~namespace ~adversary ~seed () =
  let ids = ids ~n ~namespace ~seed in
  let rng = Rng.of_seed (seed lxor 0xadce5) in
  let res =
    match protocol with
    | E.This_work_crash ->
        let module B = Build (CR.Net) in
        CR.run ~params:CR.experiment_params ~ids
          ?crash:(Option.bind adversary (B.make ~rng ~n))
          ?trace ~seed ?shards ()
    | E.Halving_baseline ->
        let module B = Build (HR.Net) in
        HR.run ~ids
          ?crash:(Option.bind adversary (B.make ~rng ~n))
          ?trace ~seed ?shards ()
    | E.Flooding_baseline ->
        let module B = Build (FR.Net) in
        let f = Option.fold ~none:0 ~some:budget adversary in
        FR.run
          ~params:{ FR.rounds = `Tolerate f }
          ~ids
          ?crash:(Option.bind adversary (B.make ~rng ~n))
          ?trace ~seed ?shards ()
  in
  Runner.assess res
