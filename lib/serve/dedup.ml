(** The in-flight dedup table: identical jobs share one execution.

    Keys are content digests of the request (the same content-addressing
    the certificate cache uses — [Cas_compiler.Cache.digest] over the
    request's semantic fields), so "identical" means *semantically
    identical input*, not same client or same connection. The first
    arrival of a key becomes the leader and actually executes; every
    later arrival while the leader is still in flight is *coalesced*: it
    parks a callback and gets the leader's result fanned out to it. This
    is what turns a thundering herd of N identical certify requests into
    one checker run and N responses.

    The table only covers the in-flight window — once a job completes,
    its key leaves the table and the scheduler's *response memo* (whole
    results, same keys) and the *certificate cache* (per-function
    verdicts, cross-restart) take over as the completed-work dedup
    tiers. The layers are keyed compatibly by construction. *)

type 'r t = {
  lock : Mutex.t;
  tbl : (string, ('r -> unit) list ref) Hashtbl.t;
  coalesced : int Atomic.t;  (** total followers that shared a leader *)
  executed : int Atomic.t;  (** total leaders (distinct executions) *)
}

let create () : 'r t =
  {
    lock = Mutex.create ();
    tbl = Hashtbl.create 64;
    coalesced = Atomic.make 0;
    executed = Atomic.make 0;
  }

(** Join the job for [key]. [`Leader] means the caller must execute the
    job and later call [complete]; [`Coalesced] means [callback] will be
    invoked by the leader's [complete]. *)
let join (t : 'r t) ~(key : string) (callback : 'r -> unit) :
    [ `Leader | `Coalesced ] =
  Mutex.lock t.lock;
  match Hashtbl.find_opt t.tbl key with
  | Some waiters ->
    waiters := callback :: !waiters;
    Mutex.unlock t.lock;
    Atomic.incr t.coalesced;
    `Coalesced
  | None ->
    Hashtbl.add t.tbl key (ref [ callback ]);
    Mutex.unlock t.lock;
    Atomic.incr t.executed;
    `Leader

(** Deliver the leader's result to every waiter of [key] (in arrival
    order) and retire the key. Returns the fan-out count. Callbacks run
    outside the table lock — they write response frames. *)
let complete (t : 'r t) ~(key : string) (result : 'r) : int =
  Mutex.lock t.lock;
  let waiters =
    match Hashtbl.find_opt t.tbl key with
    | Some w ->
      Hashtbl.remove t.tbl key;
      List.rev !w
    | None -> []
  in
  Mutex.unlock t.lock;
  List.iter (fun cb -> cb result) waiters;
  List.length waiters

(** Is [key] currently in flight? (Advisory: the answer can change the
    moment the lock is released — the scheduler serializes [inflight_key]
    and [join] under its own lock to make the pair atomic.) *)
let inflight_key (t : _ t) (key : string) : bool =
  Mutex.lock t.lock;
  let b = Hashtbl.mem t.tbl key in
  Mutex.unlock t.lock;
  b

let coalesced_total (t : _ t) : int = Atomic.get t.coalesced
let executed_total (t : _ t) : int = Atomic.get t.executed
