module Rng = Repro_util.Rng
module Ilog = Repro_util.Ilog

let random_ids ~seed ~namespace ~n =
  if n > namespace then invalid_arg "Experiment.random_ids: n > namespace";
  let rng = Rng.of_seed seed in
  let ids =
    Rng.sample_without_replacement rng n
      (Array.init namespace (fun i -> i + 1))
  in
  Array.sort Int.compare ids;
  ids

type crash_protocol = This_work_crash | Halving_baseline | Flooding_baseline
type byz_protocol = This_work_byz | Everyone_byz

type crash_adversary =
  | No_crash
  | Random_crashes of int
  | Committee_killer of int
  | Committee_killer_partial of int
  | Patient_killer of int
  | Scripted_crashes of (int * int * [ `All | `Nothing | `Subset of int ]) list

type byz_adversary =
  | No_byz
  | Silent_byz of int
  | Noise_byz of int
  | Split_world_byz of int

let crash_protocol_name = function
  | This_work_crash -> "this-work-crash"
  | Halving_baseline -> "halving-all-to-all"
  | Flooding_baseline -> "flooding"

let byz_protocol_name = function
  | This_work_byz -> "this-work-byz"
  | Everyone_byz -> "byz-committee=all"

let crash_adversary_f = function
  | No_crash -> 0
  | Random_crashes f | Committee_killer f | Committee_killer_partial f
  | Patient_killer f ->
      f
  | Scripted_crashes orders -> List.length orders

let byz_adversary_f = function
  | No_byz -> 0
  | Silent_byz f | Noise_byz f | Split_world_byz f -> f

(* Crash-adversary horizon: generously past the longest crash-model
   protocol (flooding with f+1 rounds, or 12·log n rounds). *)
let crash_horizon ~n ~f = max (f + 2) (12 * max 1 (Ilog.ceil_log2 n))

let run_crash ?trace ?shards ~protocol ~n ~namespace ~adversary ~seed () =
  let ids = random_ids ~seed:(seed lxor 0x1d5) ~namespace ~n in
  let rng = Rng.of_seed (seed lxor 0xadce5) in
  (* The engine is a functor, so each protocol carries its own adversary
     type; this local functor builds the matching strategy. [No_crash]
     attaches none, so the engine never builds an observation. *)
  let module Adversary (C : sig
    type adv

    val random :
      rng:Rng.t -> f:int -> ?horizon:int -> ?mid_send_prob:float -> unit -> adv

    val committee_killer :
      rng:Rng.t -> budget:int -> ?partial:bool -> unit -> adv

    val patient_killer : budget:int -> unit -> adv

    val scripted :
      (int * int * [ `All | `Nothing | `Subset of int ]) list -> adv
  end) =
  struct
    let make = function
      | No_crash -> None
      | Random_crashes f ->
          Some (C.random ~rng ~f ~horizon:(crash_horizon ~n ~f) ())
      | Committee_killer f -> Some (C.committee_killer ~rng ~budget:f ())
      | Committee_killer_partial f ->
          Some (C.committee_killer ~rng ~budget:f ~partial:true ())
      | Patient_killer f -> Some (C.patient_killer ~budget:f ())
      | Scripted_crashes orders -> Some (C.scripted orders)
  end
  in
  (* [Halving_renaming.Net] is [Crash_renaming.Net]: one instance serves
     both protocols. *)
  let module Crash_adv = Adversary (struct
    type adv = Crash_renaming.Net.crash_adversary

    include Crash_renaming.Net.Crash
  end) in
  let res =
    match protocol with
    | This_work_crash ->
        Crash_renaming.run ~params:Crash_renaming.experiment_params ~ids
          ?crash:(Crash_adv.make adversary) ?trace ~seed ?shards ()
    | Halving_baseline ->
        Halving_renaming.run ~ids ?crash:(Crash_adv.make adversary) ?trace
          ~seed ?shards ()
    | Flooding_baseline ->
        let module A = Adversary (struct
          type adv = Flooding_renaming.Net.crash_adversary

          include Flooding_renaming.Net.Crash
        end) in
        let params =
          { Flooding_renaming.rounds = `Tolerate (crash_adversary_f adversary) }
        in
        Flooding_renaming.run ~params ~ids ?crash:(A.make adversary) ?trace
          ~seed ?shards ()
  in
  Runner.assess res

let committee_pool_probability ~n =
  if n <= 1 then 1.
  else
    let log_n = log (float_of_int n) /. log 2. in
    Float.min 1. (4. *. log_n /. float_of_int n)

let run_byz ?trace ?shards ~protocol ~n ~namespace ~adversary
    ?pool_probability
    ?(reconcile = Byzantine_renaming.Fingerprint_dnc)
    ?(consensus = Byzantine_renaming.Phase_king_consensus) ~seed () =
  let ids = random_ids ~seed:(seed lxor 0x2e7) ~namespace ~n in
  let p0 =
    match pool_probability with
    | Some p -> p
    | None -> committee_pool_probability ~n
  in
  let params =
    {
      Byzantine_renaming.namespace;
      shared_seed = seed lxor 0x5aed;
      epsilon0 = 0.1;
      pool_probability = `Fixed p0;
      committee =
        (match protocol with
        | This_work_byz -> Byzantine_renaming.Shared_pool
        | Everyone_byz -> Byzantine_renaming.Everyone);
      reconcile;
      consensus;
    }
  in
  let f = byz_adversary_f adversary in
  let byz_ids =
    (* Byzantine identities: chosen by Carlo before activation, i.e.
       independently of the shared randomness that later draws the
       candidate pool (Lemma 3.5's |B| < c_g/2 bound holds w.h.p. only
       over that independence). *)
    let corrupt_rng = Rng.of_seed (seed lxor 0xca410) in
    Array.to_list (Rng.sample_without_replacement corrupt_rng f ids)
  in
  let rng = Rng.of_seed (seed lxor 0xb42) in
  let strategy =
    match adversary with
    | No_byz | Silent_byz _ -> Byz_strategies.silent
    | Noise_byz _ -> Byz_strategies.random_noise params ~rng ~ids
    | Split_world_byz _ -> Byz_strategies.split_world params ~rng ~ids
  in
  let byz = if f = 0 then None else Some (byz_ids, strategy) in
  Runner.assess
    (Byzantine_renaming.run ~params ?byz ?trace ~max_rounds:400_000 ~seed
       ?shards ~ids ())

(* {1 Reporting} *)

(* Optional CSV sink: when RENAMING_CSV_DIR is set, every printed table
   is also written there as <slug>.csv for plotting. *)
let csv_slug title =
  (* Keep the title up to the first colon or the first non-ASCII byte:
     every multi-byte UTF-8 sequence starts with a byte >= 0x80, so this
     cuts before any dash/arrow/ellipsis glyph, not just the U+2014
     family whose lead byte happens to be '\xe2'. *)
  let stop = ref (String.length title) in
  String.iteri
    (fun i c ->
      if (Char.code c >= 0x80 || c = ':') && i < !stop then stop := i)
    title;
  let prefix = String.sub title 0 !stop in
  let buf = Buffer.create 32 in
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | '0' .. '9' -> Buffer.add_char buf c
      | 'A' .. 'Z' -> Buffer.add_char buf (Char.lowercase_ascii c)
      | ' ' | '/' | '-' ->
          if Buffer.length buf > 0 && Buffer.nth buf (Buffer.length buf - 1) <> '_'
          then Buffer.add_char buf '_'
      | _ -> ())
    prefix;
  let s = Buffer.contents buf in
  if String.length s > 0 && s.[String.length s - 1] = '_' then
    String.sub s 0 (String.length s - 1)
  else s

(* Display tables use 1_234_567 grouping; CSV consumers want raw
   integers. *)
let csv_normalize cell =
  let numeric_grouped =
    String.length cell > 0
    && String.for_all (fun c -> (c >= '0' && c <= '9') || c = '_') cell
    && String.contains cell '_'
  in
  if numeric_grouped then
    String.concat "" (String.split_on_char '_' cell)
  else cell

let csv_escape cell =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') cell then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' cell) ^ "\""
  else cell

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then mkdir_p parent;
    (* A concurrent writer may have won the race; only a still-missing
       directory is an error. *)
    try Sys.mkdir dir 0o755
    with Sys_error _ when Sys.is_directory dir -> ()
  end

let write_csv ~title ~header ~rows =
  match Sys.getenv_opt "RENAMING_CSV_DIR" with
  | None | Some "" -> ()
  | Some dir ->
      mkdir_p dir;
      let path = Filename.concat dir (csv_slug title ^ ".csv") in
      (* Write to a temp file and rename so readers never observe a
         truncated table, even if a row formatter raises mid-write. *)
      let tmp = path ^ ".tmp" in
      let oc = open_out tmp in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () ->
          List.iter
            (fun row ->
              output_string oc
                (String.concat ","
                   (List.map (fun c -> csv_escape (csv_normalize c)) row));
              output_char oc '\n')
            (header :: rows));
      Sys.rename tmp path

(* The bench harness's human-facing table report — stdout is the
   deliverable here, hence the D5 allow on the whole binding. *)
let print_table ~title ~header ~rows =
  write_csv ~title ~header ~rows;
  let all = header :: rows in
  let cols = List.length header in
  let width c =
    List.fold_left
      (fun acc row ->
        max acc (String.length (try List.nth row c with _ -> "")))
      0 all
  in
  let widths = List.init cols width in
  let line row =
    String.concat "  "
      (List.mapi
         (fun c cell ->
           let w = List.nth widths c in
           cell ^ String.make (w - String.length cell) ' ')
         row)
  in
  print_newline ();
  print_endline title;
  print_endline (String.make (String.length title) '=');
  print_endline (line header);
  print_endline (String.make (String.length (line header)) '-');
  List.iter (fun r -> print_endline (line r)) rows
[@@lint.allow "D5"]

let trial_seed ~seed i = seed + (i * 7919)

let averaged assessments =
  let trials = List.length assessments in
  if trials = 0 then invalid_arg "Experiment.averaged: no assessments";
  List.iter
    (fun (a : Runner.assessment) ->
      if not a.correct then
        failwith
          (Format.asprintf "Experiment.averaged: incorrect run: %a" Runner.pp a);
      if not (Runner.reconciles a) then
        failwith
          (Format.asprintf
             "Experiment.averaged: per-round accounting does not reconcile \
              with totals: %a"
             Runner.pp a))
    assessments;
  let meanf f =
    List.fold_left (fun acc a -> acc +. f a) 0. assessments
    /. float_of_int trials
  in
  ( List.nth assessments (trials - 1),
    meanf (fun a -> float_of_int a.Runner.rounds),
    meanf (fun a -> float_of_int a.Runner.messages),
    meanf (fun a -> float_of_int a.Runner.bits) )
