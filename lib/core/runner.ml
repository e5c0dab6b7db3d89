module Engine = Repro_sim.Engine
module Metrics = Repro_sim.Metrics

type assessment = {
  n : int;
  assignments : (int * int) list;
  decided : int;
  crashed : int;
  byzantine : int;
  unfinished : int;
  unique : bool;
  strong : bool;
  order_preserving : bool;
  correct : bool;
  rounds : int;
  messages : int;
  bits : int;
  byz_messages : int;
  byz_bits : int;
  crash_cost : int;
  per_round : Metrics.round_row array;
}

let assess (res : int Engine.run_result) =
  let n = List.length res.outcomes in
  let count p = List.length (List.filter p res.outcomes) in
  let assignments =
    List.filter_map
      (function id, Engine.Decided v -> Some (id, v) | _ -> None)
      res.outcomes
    |> List.sort (fun (id1, new1) (id2, new2) ->
           match Int.compare id1 id2 with
           | 0 -> Int.compare new1 new2
           | c -> c)
  in
  let news = List.map snd assignments in
  let unique = List.length (List.sort_uniq Int.compare news) = List.length news in
  let strong = List.for_all (fun v -> 1 <= v && v <= n) news in
  let rec monotone = function
    | (_, (v1 : int)) :: ((_, v2) :: _ as rest) -> v1 < v2 && monotone rest
    | [ _ ] | [] -> true
  in
  let unfinished = count (function _, Engine.Unfinished -> true | _ -> false) in
  {
    n;
    assignments;
    decided = List.length assignments;
    crashed = count (function _, Engine.Crashed _ -> true | _ -> false);
    byzantine = count (function _, Engine.Byzantine -> true | _ -> false);
    unfinished;
    unique;
    strong;
    order_preserving = monotone assignments;
    correct = unique && strong && unfinished = 0;
    rounds = res.metrics.Metrics.rounds;
    messages = res.metrics.Metrics.honest_messages;
    bits = res.metrics.Metrics.honest_bits;
    byz_messages = res.metrics.Metrics.byz_messages;
    byz_bits = res.metrics.Metrics.byz_bits;
    crash_cost = res.metrics.Metrics.crashes;
    per_round = Metrics.per_round res.metrics;
  }

let reconciles a =
  let sum f = Array.fold_left (fun acc r -> acc + f r) 0 a.per_round in
  sum (fun (r : Metrics.round_row) -> r.Metrics.hmsgs) = a.messages
  && sum (fun r -> r.Metrics.hbits) = a.bits
  && sum (fun r -> r.Metrics.bmsgs) = a.byz_messages
  && sum (fun r -> r.Metrics.bbits) = a.byz_bits

let pp ppf a =
  Format.fprintf ppf
    "n=%d decided=%d crashed=%d byz=%d unique=%b strong=%b order=%b \
     rounds=%d msgs=%d bits=%d"
    a.n a.decided a.crashed a.byzantine a.unique a.strong a.order_preserving
    a.rounds a.messages a.bits
