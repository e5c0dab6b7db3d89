(* A reusable fixed-size domain pool with a barrier per job: the only
   code that spawns domains, for the engine's shards and for
   [Parallel.map]'s trials alike.

   The sharded engine runs two parallel phases per round; spawning
   domains per phase (or even per round) would dominate the work at
   small n. This pool spawns its worker domains once, parks them on a
   condition variable, and re-dispatches them round after round: one
   [run] is one barrier — publish the job, everyone executes their shard
   index, the caller blocks until all shards are done.

   Determinism contract: [run t f] executes [f k] exactly once for every
   shard index [k] in [0, shards); the caller's domain executes shard 0
   itself (so a 1-shard pool is a plain call with no synchronization and
   no domains). Which domain runs which shard is fixed at creation — a
   shard's mutable working set (inbox segments, billing counters) is
   only ever touched from its own domain. All writes made by the caller
   before [run] are visible to every worker during the job, and all
   worker writes are visible to the caller after [run] returns (the
   mutex acquisitions on both sides of the barrier order them).

   Exceptions raised inside [f] are caught per shard and the
   lowest-indexed one is re-raised from [run] after every shard has
   finished — the pool itself stays usable. No pool state is global:
   a pool lives and dies with the run that created it ([lib/sim] keeps
   it inside [Engine.run], so the D4 no-top-level-mutable-state rule
   holds without an allow).

   A domain executing a job of a multi-shard pool has already been
   given its share of the budget, so [available] answers 1 there: a run
   inside a trial fan-out never nests a pool of its own. *)

let budget () =
  Option.bind (Sys.getenv_opt "RENAMING_DOMAINS") (fun s ->
      match int_of_string_opt (String.trim s) with
      | Some d when d >= 1 -> Some d
      | _ -> None)

(* Domain-local, so each domain reads only its own flag: set for good
   on a worker domain, and around shard 0 on the caller's. *)
let in_job : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

let available ~unset =
  if Domain.DLS.get in_job then 1
  else match budget () with Some d -> d | None -> unset

type t = {
  shards : int;
  mutex : Mutex.t;
  work : Condition.t;
  finished : Condition.t;
  (* Barrier state, all under [mutex]: a job is published by bumping
     [generation]; workers run it and decrement [pending]. *)
  mutable generation : int;
  mutable job : (int -> unit) option;
  mutable pending : int;
  mutable stopping : bool;
  (* One slot per shard, written only by that shard's domain during a
     job and read only by the caller after the barrier. *)
  exns : exn option array;
  mutable workers : unit Domain.t array;
}

let worker t k () =
  Domain.DLS.set in_job true;
  let rec loop last_gen =
    Mutex.lock t.mutex;
    while t.generation = last_gen && not t.stopping do
      Condition.wait t.work t.mutex
    done;
    if t.stopping then Mutex.unlock t.mutex
    else begin
      let gen = t.generation in
      let job = Option.get t.job in
      Mutex.unlock t.mutex;
      (try job k with e -> t.exns.(k) <- Some e);
      Mutex.lock t.mutex;
      t.pending <- t.pending - 1;
      if t.pending = 0 then Condition.signal t.finished;
      Mutex.unlock t.mutex;
      loop gen
    end
  in
  loop 0

let create ~shards =
  if shards < 1 then invalid_arg "Domain_pool.create: shards must be >= 1";
  let t =
    {
      shards;
      mutex = Mutex.create ();
      work = Condition.create ();
      finished = Condition.create ();
      generation = 0;
      job = None;
      pending = 0;
      stopping = false;
      exns = Array.make shards None;
      workers = [||];
    }
  in
  if shards > 1 then
    t.workers <-
      Array.init (shards - 1) (fun i -> Domain.spawn (worker t (i + 1)));
  t

let shards t = t.shards

let run t f =
  if t.shards = 1 then f 0
  else begin
    if t.stopping then invalid_arg "Domain_pool.run: pool is shut down";
    Array.fill t.exns 0 t.shards None;
    Mutex.lock t.mutex;
    t.job <- Some f;
    t.pending <- t.shards - 1;
    t.generation <- t.generation + 1;
    Condition.broadcast t.work;
    Mutex.unlock t.mutex;
    (* The caller is shard 0: it works instead of blocking, and a
       1-worker... n-worker pool keeps all domains busy. *)
    let outer = Domain.DLS.get in_job in
    Domain.DLS.set in_job true;
    (try f 0 with e -> t.exns.(0) <- Some e);
    Domain.DLS.set in_job outer;
    Mutex.lock t.mutex;
    while t.pending > 0 do
      Condition.wait t.finished t.mutex
    done;
    t.job <- None;
    Mutex.unlock t.mutex;
    (* Every shard ran to completion (or to its exception); surface the
       lowest shard index's failure so the choice is deterministic. *)
    for k = 0 to t.shards - 1 do
      match t.exns.(k) with Some e -> raise e | None -> ()
    done
  end

let shutdown t =
  if not t.stopping then begin
    Mutex.lock t.mutex;
    t.stopping <- true;
    Condition.broadcast t.work;
    Mutex.unlock t.mutex;
    Array.iter Domain.join t.workers
  end

let with_pool ~shards f =
  let t = create ~shards in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)
