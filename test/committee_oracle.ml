(* Reference implementation of the Figure-2 committee rule: the
   verdicts one committee member sends back for a round of status
   reports, computed straight from the definition with no retained
   state. Among the statuses of minimum depth, every distinct
   non-singleton interval is a group; a reporter of the group's
   interval goes to the bottom half when the statuses inside the bottom
   half plus its rank (reporters of the interval with identity <= its
   own) still fit there, and to the top half otherwise. Every other
   status is echoed, a minimum-depth singleton one level deeper, and
   every verdict carries the member's escalation counter after adopting
   the round's largest [p].

   The library's committee must agree with this verdict
   for verdict, byte for byte, on every inbox that meets its input
   contract. The oracle itself assumes nothing about the inbox, so it
   also defines the expected answer for a corrupted round that the
   contract checks happen not to reject. *)

module CR = Repro_renaming.Crash_renaming
module I = Repro_util.Interval

type status = { src : int; id : int; iv : I.t; d : int; p : int }

let statuses pairs =
  List.filter_map
    (fun (src, msg) ->
      match msg with
      | CR.Msg.Status { id; iv; d; p } -> Some { src; id; iv; d; p }
      | CR.Msg.Notify | CR.Msg.Response _ -> None)
    pairs

let same_iv a b = a.I.lo = b.I.lo && a.I.hi = b.I.hi

(* One round: the [(dst, msg, bits)] verdicts in inbox order and the
   member's escalation counter afterwards. *)
let round ~pv pairs =
  match statuses pairs with
  | [] -> ([], pv)
  | sts ->
      let d_min = List.fold_left (fun acc s -> min acc s.d) max_int sts in
      let pv = List.fold_left (fun acc s -> max acc s.p) pv sts in
      let verdict s =
        if s.d <> d_min then CR.Msg.Response { iv = s.iv; d = s.d; p = pv }
        else if I.is_singleton s.iv then
          CR.Msg.Response { iv = s.iv; d = s.d + 1; p = pv }
        else
          let bot = I.bot s.iv in
          let inside_bot =
            List.length
              (List.filter
                 (fun o -> (not (same_iv o.iv s.iv)) && Halving_tree.subset o.iv bot)
                 sts)
          in
          let rank =
            List.length
              (List.filter (fun o -> same_iv o.iv s.iv && o.id <= s.id) sts)
          in
          let iv =
            if inside_bot + rank <= I.size bot then bot else I.top s.iv
          in
          CR.Msg.Response { iv; d = s.d + 1; p = pv }
      in
      ( List.map
          (fun s ->
            let m = verdict s in
            (s.src, m, CR.Msg.bits m))
          sts,
        pv )

(* A member's rounds in sequence: only the escalation counter carries
   over. *)
let run ~pv rounds =
  let pv, rev =
    List.fold_left
      (fun (pv, acc) pairs ->
        let out, pv = round ~pv pairs in
        (pv, out :: acc))
      (pv, []) rounds
  in
  (List.rev rev, pv)

let verdicts ~pv rounds = fst (run ~pv rounds)
let final_pv ~pv rounds = snd (run ~pv rounds)

(* {1 Full-run pins}

   The oracle's full-run counterpart: whole executions are pinned by
   the MD5 of their run-trace JSONL and of their assignment list
   (["orig:new;..."]) together with their bit and message totals. Each
   pin was recorded from a run whose committees answered through the
   linear scan this oracle replaces, and checked equal to the
   incremental committee's run at the time. *)

type pin = { trace_md5 : string; assign_md5 : string; bits : int; msgs : int }

let md5 s = Digest.to_hex (Digest.string s)

let pin_of ~trace (a : Repro_renaming.Runner.assessment) =
  {
    trace_md5 = md5 (Repro_obs.Trace.contents trace);
    assign_md5 =
      md5
        (String.concat ";"
           (List.map
              (fun (o, n) -> Printf.sprintf "%d:%d" o n)
              a.Repro_renaming.Runner.assignments));
    bits = a.Repro_renaming.Runner.bits;
    msgs = a.Repro_renaming.Runner.messages;
  }

let check_pin name ~expected got =
  Alcotest.(check string) (name ^ ": trace md5") expected.trace_md5
    got.trace_md5;
  Alcotest.(check string) (name ^ ": assignments md5") expected.assign_md5
    got.assign_md5;
  Alcotest.(check int) (name ^ ": bits") expected.bits got.bits;
  Alcotest.(check int) (name ^ ": messages") expected.msgs got.msgs
