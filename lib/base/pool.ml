(** Domain pool: a pool of OCaml 5 domains draining a shared task counter
    over an array of independent tasks. Used by the compiler's parallel
    per-module builds ([Cas_compiler.Driver.compile_all]) and the
    linker's per-module re-validation; the model checker's work-stealing
    frontier ([Cas_mc.Frontier]) takes only [default_jobs] from here.

    [jobs = 1] is the deterministic fallback: tasks run sequentially, in
    order, on the calling domain — no domain is spawned and results are
    bit-for-bit reproducible. With [jobs > 1] tasks are claimed with an
    atomic fetch-and-add (a degenerate work-stealing deque: one shared
    bottom), which is ample at the tens-of-tasks granularity the callers
    produce (compilation units, linked modules). *)

let default_jobs () = max 1 (Domain.recommended_domain_count () - 1)

(** Run every task, returning results in task order. *)
let run ~jobs (tasks : (unit -> 'a) list) : 'a list =
  let jobs = max 1 jobs in
  if jobs = 1 then List.map (fun f -> f ()) tasks
  else begin
    let arr = Array.of_list tasks in
    let n = Array.length arr in
    let results : 'a option array = Array.make n None in
    let next = Atomic.make 0 in
    let worker () =
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          results.(i) <- Some (arr.(i) ());
          loop ()
        end
      in
      loop ()
    in
    let helpers = min (jobs - 1) (max 0 (n - 1)) in
    let doms = List.init helpers (fun _ -> Domain.spawn worker) in
    worker ();
    List.iter Domain.join doms;
    Array.to_list results |> List.filter_map Fun.id
  end

(** A persistent worker pool for long-running servers: [jobs] domains
    spawned once at [create] drain a shared FIFO of thunks until
    [drain]ed. Unlike [run] above (batch: spawn, run a known task array,
    join), a persistent pool accepts submissions over its whole lifetime
    and must therefore answer the question [run] never faces: what
    happens to a submission after teardown has begun? Here the contract
    is explicit — [submit] returns [Error `Draining] from the moment
    [drain] is called, while every job accepted before that moment is
    guaranteed to execute before [drain] returns. That rejection path is
    what the certification daemon's admission control builds on. *)
module Persistent = struct
  type state = Running | Draining | Stopped

  type t = {
    lock : Mutex.t;
    nonempty : Condition.t;
    queue : (unit -> unit) Queue.t;
    mutable state : state;
    mutable busy : int;  (** workers currently executing a job *)
    n_workers : int;
    mutable doms : unit Domain.t list;
    executed : int Atomic.t;
    failed : int Atomic.t;  (** jobs that raised (exceptions swallowed) *)
  }

  let worker (t : t) () =
    let rec loop () =
      Mutex.lock t.lock;
      while Queue.is_empty t.queue && t.state = Running do
        Condition.wait t.nonempty t.lock
      done;
      if Queue.is_empty t.queue then
        (* draining and nothing left: this worker is done *)
        Mutex.unlock t.lock
      else begin
        let job = Queue.pop t.queue in
        t.busy <- t.busy + 1;
        Mutex.unlock t.lock;
        (try job ()
         with _ -> Atomic.incr t.failed);
        Atomic.incr t.executed;
        Mutex.lock t.lock;
        t.busy <- t.busy - 1;
        Mutex.unlock t.lock;
        loop ()
      end
    in
    loop ()

  let create ~jobs () : t =
    let jobs = max 1 jobs in
    let t =
      {
        lock = Mutex.create ();
        nonempty = Condition.create ();
        queue = Queue.create ();
        state = Running;
        busy = 0;
        n_workers = jobs;
        doms = [];
        executed = Atomic.make 0;
        failed = Atomic.make 0;
      }
    in
    t.doms <- List.init jobs (fun _ -> Domain.spawn (worker t));
    t

  (** Enqueue [job] for execution on some worker domain. Refused (and
      never run) once [drain] has started. *)
  let submit (t : t) (job : unit -> unit) : (unit, [ `Draining ]) result =
    Mutex.lock t.lock;
    if t.state <> Running then begin
      Mutex.unlock t.lock;
      Error `Draining
    end
    else begin
      Queue.push job t.queue;
      Condition.signal t.nonempty;
      Mutex.unlock t.lock;
      Ok ()
    end

  (** Jobs accepted but not yet started. *)
  let queued (t : t) : int =
    Mutex.lock t.lock;
    let n = Queue.length t.queue in
    Mutex.unlock t.lock;
    n

  (** Workers currently executing a job. *)
  let busy (t : t) : int =
    Mutex.lock t.lock;
    let n = t.busy in
    Mutex.unlock t.lock;
    n

  let workers (t : t) : int = t.n_workers
  let executed (t : t) : int = Atomic.get t.executed
  let failed (t : t) : int = Atomic.get t.failed

  (** Graceful shutdown: refuse new submissions, finish every queued
      job, join the worker domains. Idempotent; returns only once every
      accepted job has run. *)
  let drain (t : t) : unit =
    Mutex.lock t.lock;
    let first = t.state = Running in
    if first then t.state <- Draining;
    Condition.broadcast t.nonempty;
    Mutex.unlock t.lock;
    if first then begin
      List.iter Domain.join t.doms;
      Mutex.lock t.lock;
      t.doms <- [];
      t.state <- Stopped;
      Mutex.unlock t.lock
    end
    else
      (* a concurrent drain already owns the join: wait it out *)
      let rec wait () =
        Mutex.lock t.lock;
        let done_ = t.state = Stopped in
        Mutex.unlock t.lock;
        if not done_ then begin
          Domain.cpu_relax ();
          wait ()
        end
      in
      wait ()
end
