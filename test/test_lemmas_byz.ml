(* Lemma-level invariant checks for the Byzantine-resilient algorithm,
   instrumented via telemetry:

   - committee views coincide across all correct nodes (the symmetric-
     membership model DESIGN.md documents; prerequisite for Lemmas
     3.3/3.4's thresholds);
   - Lemma 3.8: all correct committee members settle on the same segment
     partition, and that partition tiles [1, N] exactly;
   - Lemma 3.11: on every settled segment, (1) the members whose content
     matches the agreement (non-dirty) outnumber the Byzantine members,
     (2) non-dirty members agree bit-for-bit, (3) every member — dirty or
     not — carries the same number of ones (so ranks are consistent), and
     (c) every honest identity appears as a one at every member non-dirty
     on its segment;
   - strongness source: the total agreed ones never exceed the number of
     announcing nodes. *)

module BR = Repro_renaming.Byzantine_renaming
module BS = Repro_renaming.Byz_strategies
module B = Repro_util.Bitvec
module I = Repro_util.Interval
module Rng = Repro_util.Rng

type member_record = { l : B.t; partition : I.t list; dirty : I.t list }

type recording = {
  views : (int, int list) Hashtbl.t;
  members : (int, member_record) Hashtbl.t;
}

let record ~n ~f ~seed ~strategy_kind =
  let namespace = n * n in
  let ids = Repro_renaming.Experiment.random_ids ~seed ~namespace ~n in
  let params =
    {
      (BR.default_params ~namespace ~shared_seed:(seed + 1)) with
      pool_probability = `Fixed 0.6;
    }
  in
  let byz_ids =
    let rng = Rng.of_seed (seed lxor 0x6b2) in
    Array.to_list (Rng.sample_without_replacement rng f ids)
  in
  let rec_ = { views = Hashtbl.create 64; members = Hashtbl.create 16 } in
  let telemetry =
    {
      BR.on_view = (fun ~id ~view -> Hashtbl.replace rec_.views id view);
      on_reconciled =
        (fun ~id ~l ~partition ~dirty ->
          Hashtbl.replace rec_.members id { l; partition; dirty });
    }
  in
  let strategy =
    match strategy_kind with
    | `Silent -> BS.silent
    | `Noise -> BS.random_noise params ~rng:(Rng.of_seed (seed + 2)) ~ids
    | `Split -> BS.split_world params ~rng:(Rng.of_seed (seed + 3)) ~ids
  in
  let byz = if f = 0 then None else Some (byz_ids, strategy) in
  let res =
    BR.run ~telemetry ~params ?byz ~max_rounds:400_000 ~seed ~ids ()
  in
  let a = Repro_renaming.Runner.assess res in
  (rec_, a, byz_ids, ids, namespace)

let all_equal = function
  | [] -> true
  | x :: rest -> List.for_all (( = ) x) rest

let partition_tiles_namespace namespace partition =
  let sorted = List.sort I.compare partition in
  let rec covers expected = function
    | [] -> expected = namespace + 1
    | (j : I.t) :: rest -> j.I.lo = expected && covers (j.I.hi + 1) rest
  in
  covers 1 sorted

let check_lemmas ~strategy_kind ~n ~f ~seed () =
  let rec_, a, byz_ids, ids, namespace = record ~n ~f ~seed ~strategy_kind in
  Alcotest.(check bool) "renaming correct" true (a.unique && a.strong);
  (* Views coincide. *)
  let views = Hashtbl.fold (fun _ v acc -> v :: acc) rec_.views [] in
  Alcotest.(check bool) "views coincide" true (all_equal views);
  let members = Hashtbl.fold (fun id m acc -> (id, m) :: acc) rec_.members [] in
  Alcotest.(check bool) "some honest members recorded" true (members <> []);
  (* Lemma 3.8: identical partitions, tiling [1, N]. *)
  let partitions = List.map (fun (_, m) -> m.partition) members in
  Alcotest.(check bool) "partitions identical (Lemma 3.8)" true
    (all_equal partitions);
  Alcotest.(check bool) "partition tiles [1,N] (Lemma 3.8)" true
    (partition_tiles_namespace namespace (List.hd partitions));
  (* Lemma 3.11, per settled segment. *)
  let byz_in_view =
    match views with
    | view :: _ -> List.filter (fun b -> List.mem b view) byz_ids
    | [] -> []
  in
  let honest_ids =
    Array.to_list ids |> List.filter (fun i -> not (List.mem i byz_ids))
  in
  List.iter
    (fun j ->
      let non_dirty, counts =
        List.fold_left
          (fun (nd, cs) (_, m) ->
            let is_dirty = List.exists (fun dj -> Halving_tree.subset j dj || I.equal dj j) m.dirty in
            let nd = if is_dirty then nd else (m.l :: nd) in
            (nd, B.count m.l j :: cs))
          ([], []) members
      in
      (* (3) everyone agrees on the one-count. *)
      Alcotest.(check bool)
        (Printf.sprintf "counts agree on %s (Lemma 3.11.2)" (I.to_string j))
        true (all_equal counts);
      (* (1) non-dirty members outnumber Byzantine view members. *)
      Alcotest.(check bool)
        (Printf.sprintf "non-dirty majority on %s (Lemma 3.11.1)"
           (I.to_string j))
        true
        (List.length non_dirty > List.length byz_in_view);
      (* (2) non-dirty members agree bit-for-bit. *)
      (match non_dirty with
      | first :: rest ->
          List.iter
            (fun other ->
              Alcotest.(check bool)
                (Printf.sprintf "segments equal on %s (Lemma 3.11.1b)"
                   (I.to_string j))
                true
                (Fingerprint_oracle.equal_segment first other j))
            rest
      | [] -> ());
      (* (1c) honest identities present at non-dirty members. *)
      List.iter
        (fun i ->
          if I.contains j i then
            List.iter
              (fun l ->
                Alcotest.(check bool)
                  (Printf.sprintf "honest id %d present (Lemma 3.11.1c)" i)
                  true (B.get l i))
              non_dirty)
        honest_ids)
    (List.hd partitions);
  (* Strongness source: agreed total ones <= number of nodes. *)
  let _, first = List.hd members in
  Alcotest.(check bool) "total ones <= n" true
    (B.count_all first.l <= Array.length ids);
  (* Lemma 3.10: the divide-and-conquer terminates within 4·f·log N
     iterations; the settled partition's size is a lower bound on the
     iterations, so it must respect the same budget. *)
  let log_namespace = Repro_util.Ilog.ceil_log2 namespace in
  let bound = max 1 (4 * f * log_namespace) in
  Alcotest.(check bool)
    (Printf.sprintf "partition size %d within 4·f·logN = %d (Lemma 3.10)"
       (List.length first.partition) bound)
    true
    (List.length first.partition <= bound)

let suite =
  ( "lemmas_byz",
    [
      Alcotest.test_case "no byz" `Quick
        (check_lemmas ~strategy_kind:`Silent ~n:20 ~f:0 ~seed:2);
      Alcotest.test_case "silent byz" `Quick
        (check_lemmas ~strategy_kind:`Silent ~n:20 ~f:5 ~seed:4);
      Alcotest.test_case "noise byz" `Quick
        (check_lemmas ~strategy_kind:`Noise ~n:20 ~f:4 ~seed:6);
      Alcotest.test_case "split-world byz" `Slow
        (check_lemmas ~strategy_kind:`Split ~n:20 ~f:4 ~seed:8);
      Alcotest.test_case "split-world byz larger" `Slow
        (check_lemmas ~strategy_kind:`Split ~n:28 ~f:5 ~seed:10);
    ] )
