module Rng = Repro_util.Rng

type silent_rule = Uniform_pick | Shared_hash

let birthday_bound ~k ~m =
  let rec go i acc =
    if i >= k then 1. -. acc
    else go (i + 1) (acc *. (1. -. (float_of_int i /. float_of_int m)))
  in
  if m <= 0 then 1. else go 0 1.

let distinct_ids rng ~namespace ~k =
  Rng.sample_without_replacement rng k (Array.init namespace (fun i -> i + 1))

(* A shared random function [N] -> [m], lazily sampled: the silent node's
   only inputs are its own identity and the shared randomness, so its
   choice is a fixed random function of its identity. *)
let shared_hash shared_seed ~m id =
  let rng = Rng.of_seed (shared_seed lxor (id * 0x9E3779B1)) in
  1 + Rng.int rng m

(* Sorts [choices] in place, so every compare is an inline int one. *)
let has_duplicate (choices : int array) =
  Array.sort Int.compare choices;
  let rec from i =
    i < Array.length choices && (choices.(i - 1) = choices.(i) || from (i + 1))
  in
  from 1

let collision_probability ~rule ~seed ~namespace ~k ~m ~trials =
  let rng = Rng.of_seed seed in
  let collisions = ref 0 in
  for trial = 1 to trials do
    let ids = distinct_ids rng ~namespace ~k in
    let choices =
      match rule with
      | Uniform_pick -> Array.map (fun _ -> 1 + Rng.int rng m) ids
      | Shared_hash ->
          let shared_seed = seed + (trial * 7919) in
          Array.map (shared_hash shared_seed ~m) ids
    in
    if has_duplicate choices then incr collisions
  done;
  float_of_int !collisions /. float_of_int trials

let budget_success_probability ~seed ~namespace ~n ~budget ~trials =
  let rng = Rng.of_seed seed in
  let coordinated = min budget n in
  let silent = n - coordinated in
  let free_slots = n - coordinated in
  let successes = ref 0 in
  for trial = 1 to trials do
    (* Coordinated nodes occupy slots [1..coordinated] collision-free at
       one message each; silent nodes hash into the remaining slots. *)
    let ids = distinct_ids rng ~namespace ~k:silent in
    let shared_seed = seed + (trial * 104729) in
    let choices = Array.map (shared_hash shared_seed ~m:free_slots) ids in
    if not (has_duplicate choices) then incr successes
  done;
  if silent <= 1 then 1.
  else float_of_int !successes /. float_of_int trials
