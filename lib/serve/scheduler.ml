(** The request scheduler: response memo, in-flight coalescing,
    admission control and the worker domains, under one lock. A
    request's key is a content digest of its semantic fields, so the
    three dedup tiers compose by construction:

    - the *response memo*: a completed job's successful result, kept by
      key — an identical request arriving any time later is answered
      synchronously, no parse, no render, no worker ([Hit]). Requests
      are content-addressed (the source text is *in* the key), so a
      memoized verdict can never go stale;
    - the *in-flight table*: an identical job admitted and not yet
      answered — the request *coalesces*, parking its callback to ride
      the leader's execution ([Coalesced]);
    - the *certificate cache* ([Cas_compiler.Cache]): per-function
      verdicts shared across distinct requests (and, on disk, across
      restarts) that happen to contain the same function bodies.

    A miss on the first two goes to admission control: at most
    [queue_cap] distinct jobs may be outstanding (queued or executing);
    past the cap the request is rejected [Overloaded] *immediately* —
    the daemon answers with a structured overload error instead of
    letting an unbounded queue eat the latency budget. Admitted jobs
    join a FIFO that the worker domains spawned by [create] take from;
    on completion the result is memoized and fanned out to the leader's
    and every coalesced caller's callback, in arrival order.

    One mutex guards all of it, the draining flag included, so a
    submission is answered, coalesced, refused or queued by one
    decision: a job is admitted only while no drain has begun, and
    workers exit only once draining with an empty queue, so every
    admitted job runs. [drain] is the graceful-shutdown half: new
    submissions are refused [Draining], every admitted job still runs
    to completion (and its waiters get their responses) before [drain]
    returns. *)

(** [Ok] carries the response payload *already rendered to JSON text*:
    a job's result is encoded exactly once, and every consumer — the
    leader, each coalesced waiter, every later memo hit — blits the same
    bytes into its response frame. [Error] is a human-readable message. *)
type result = (string, string) Stdlib.result

type job = { key : string; run : unit -> result }

type t = {
  lock : Mutex.t;
  wake : Condition.t;
      (** a job was queued, a drain began, or the workers were joined *)
  memo : (string, result) Hashtbl.t;  (** completed [Ok] results by key *)
  inflight : (string, (result -> unit) list) Hashtbl.t;
      (** admitted keys to their waiters' callbacks, latest first *)
  queue : job Queue.t;  (** admitted jobs no worker has taken yet *)
  queue_cap : int;
  workers : int;
  mutable domains : unit Domain.t list;  (** [[]] once [drain] joined them *)
  mutable draining : bool;
  mutable outstanding : int;  (** distinct jobs admitted, not completed *)
  mutable peak_outstanding : int;
  mutable busy : int;  (** workers executing a job *)
  mutable executed : int;  (** jobs admitted (leaders) *)
  mutable coalesced : int;  (** followers that rode a leader *)
  mutable memo_hits : int;
  mutable overloaded : int;  (** submissions rejected by the cap *)
}

(* the memo starts over when full: keys are content digests, so an
   evicted result is only recomputed, never wrong *)
let memo_cap = 4096

let finish (t : t) (key : string) (r : result) : unit =
  Mutex.lock t.lock;
  t.busy <- t.busy - 1;
  t.outstanding <- t.outstanding - 1;
  (* errors are not memoized: an exception-turned-[Error] may be
     transient *)
  if Result.is_ok r then begin
    if Hashtbl.length t.memo >= memo_cap then Hashtbl.reset t.memo;
    Hashtbl.replace t.memo key r
  end;
  let waiters = Hashtbl.find t.inflight key in
  Hashtbl.remove t.inflight key;
  Mutex.unlock t.lock;
  (* outside the lock: callbacks write response frames *)
  List.iter (fun cb -> try cb r with _ -> ()) (List.rev waiters)

let rec work (t : t) : unit =
  Mutex.lock t.lock;
  while Queue.is_empty t.queue && not t.draining do
    Condition.wait t.wake t.lock
  done;
  match Queue.take_opt t.queue with
  | None -> Mutex.unlock t.lock (* drained: this worker is done *)
  | Some { key; run } ->
    t.busy <- t.busy + 1;
    Mutex.unlock t.lock;
    finish t key (try run () with e -> Error (Printexc.to_string e));
    work t

let create ~(jobs : int) ~(queue_cap : int) () : t =
  let t =
    {
      lock = Mutex.create ();
      wake = Condition.create ();
      memo = Hashtbl.create 256;
      inflight = Hashtbl.create 64;
      queue = Queue.create ();
      queue_cap = max 1 queue_cap;
      workers = max 1 jobs;
      domains = [];
      draining = false;
      outstanding = 0;
      peak_outstanding = 0;
      busy = 0;
      executed = 0;
      coalesced = 0;
      memo_hits = 0;
      overloaded = 0;
    }
  in
  t.domains <- List.init t.workers (fun _ -> Domain.spawn (fun () -> work t));
  t

type outcome =
  | Hit  (** served from the response memo; callback has ALREADY run *)
  | Admitted  (** a fresh execution was queued; callback fires later *)
  | Coalesced  (** rides an identical in-flight job; callback fires later *)
  | Overloaded  (** rejected by the queue cap; callback will NOT fire *)
  | Draining  (** rejected because [drain] has begun; callback will NOT fire *)

(** Submit the job for [key]. [run] executes on a worker domain (at most
    once per in-flight key, exceptions become [Error]); [callback] runs
    on the worker domain that completed the job — except on a memo
    [Hit], where it has already run, synchronously, when [submit]
    returns. *)
let submit (t : t) ~(key : string) ~(run : unit -> result)
    ~(callback : result -> unit) : outcome =
  Mutex.lock t.lock;
  if t.draining then begin
    Mutex.unlock t.lock;
    Draining
  end
  else
    match Hashtbl.find_opt t.memo key with
    | Some r ->
      t.memo_hits <- t.memo_hits + 1;
      Mutex.unlock t.lock;
      callback r;
      Hit
    | None -> (
      match Hashtbl.find_opt t.inflight key with
      | Some waiters ->
        (* a follower occupies no slot: it coalesces even at the cap *)
        Hashtbl.replace t.inflight key (callback :: waiters);
        t.coalesced <- t.coalesced + 1;
        Mutex.unlock t.lock;
        Coalesced
      | None when t.outstanding >= t.queue_cap ->
        t.overloaded <- t.overloaded + 1;
        Mutex.unlock t.lock;
        Overloaded
      | None ->
        Hashtbl.add t.inflight key [ callback ];
        Queue.add { key; run } t.queue;
        t.executed <- t.executed + 1;
        t.outstanding <- t.outstanding + 1;
        t.peak_outstanding <- max t.peak_outstanding t.outstanding;
        Condition.signal t.wake;
        Mutex.unlock t.lock;
        Admitted)

(** Refuse new submissions, run every admitted job to completion
    (waiters included) and join the workers. Idempotent: a concurrent
    or later call returns once the first has. *)
let drain (t : t) : unit =
  Mutex.lock t.lock;
  let first = not t.draining in
  t.draining <- true;
  if first then begin
    Condition.broadcast t.wake;
    let domains = t.domains in
    Mutex.unlock t.lock;
    List.iter Domain.join domains;
    Mutex.lock t.lock;
    t.domains <- [];
    Condition.broadcast t.wake
  end
  else
    while not (List.is_empty t.domains) do
      Condition.wait t.wake t.lock
    done;
  Mutex.unlock t.lock

let read (t : t) (f : t -> 'a) : 'a =
  Mutex.lock t.lock;
  let v = f t in
  Mutex.unlock t.lock;
  v

let overloaded_total (t : t) = read t (fun t -> t.overloaded)
let coalesced_total (t : t) = read t (fun t -> t.coalesced)
let executed_total (t : t) = read t (fun t -> t.executed)
let memo_hits_total (t : t) = read t (fun t -> t.memo_hits)
let memo_entries (t : t) = read t (fun t -> Hashtbl.length t.memo)

(** Scheduler gauges for the metrics document, read in one acquisition
    of the lock. *)
let to_json (t : t) : Cas_diag.Json.t =
  let open Cas_diag.Json in
  Obj
    (read t (fun t ->
         [
           ("depth", Int t.outstanding);
           ("cap", Int t.queue_cap);
           ("peak_depth", Int t.peak_outstanding);
           ("workers", Int t.workers);
           ("busy", Int t.busy);
           ("utilization_pct", Int (100 * t.busy / t.workers));
           ("executed", Int t.executed);
           ("coalesced", Int t.coalesced);
           ("memo_hits", Int t.memo_hits);
           ("memo_entries", Int (Hashtbl.length t.memo));
           ("overloaded", Int t.overloaded);
         ]))
