(** The work-stealing scheduler behind the DPOR engine.

    Each domain owns a {!Cas_base.Deque} (Chase–Lev) of exploration
    tasks. A running task pushes the branches it creates onto its own
    deque (LIFO, so each domain stays depth-first inside its subtree); a
    dry domain steals from victims oldest-first, i.e. the task closest
    to the root — the largest stealable subtree.

    Termination uses a global pending-task count: [push] increments it
    before the task becomes visible, and a worker decrements it only
    after the task has run (and pushed any children), so the count can
    only reach zero when no task is queued or in flight. A task that
    raises aborts the run: the exception is captured, every worker
    bails out, and the first exception is re-raised on the caller. *)

let default_jobs = Cas_base.Pool.default_jobs

(** Worker context: a task runs on exactly one worker and uses its
    context to push children ({!push}) and to index per-worker state
    kept by the caller ({!id}). *)
type 'a wctx = {
  w_id : int;
  w_jobs : int;
  w_deques : 'a deq array;
  w_pending : int Atomic.t;
  w_crashed : exn option Atomic.t;
  w_steals : int Atomic.t;
}

and 'a deq = Deq of ('a wctx -> unit) Cas_base.Deque.t [@@unboxed]

let id (w : _ wctx) = w.w_id
let jobs (w : _ wctx) = w.w_jobs

(** Total successful steals across the run so far. *)
let steals (w : _ wctx) = Atomic.get w.w_steals

(** Schedule [task] on the calling worker's own deque. May be called
    from inside a running task; the child becomes visible to thieves
    immediately. *)
let push (w : 'a wctx) (task : 'a wctx -> unit) : unit =
  Atomic.incr w.w_pending;
  let (Deq d) = w.w_deques.(w.w_id) in
  Cas_base.Deque.push d task

let run_task (w : _ wctx) task =
  (try task w
   with e ->
     (* first crash wins; everyone else sees the flag and bails *)
     ignore (Atomic.compare_and_set w.w_crashed None (Some e)));
  Atomic.decr w.w_pending

(** Run [roots] (and transitively everything they [push]) to
    completion; returns the total number of successful steals. [jobs =
    1] runs on the calling domain with a plain LIFO discipline — fully
    deterministic, no atomics contended. Re-raises the first exception
    any task raised. *)
let run_stealing ~jobs (roots : ('a wctx -> unit) list) : int =
  let jobs = max 1 jobs in
  let pending = Atomic.make 0 in
  let crashed = Atomic.make None in
  let steals = Atomic.make 0 in
  let deques =
    Array.init jobs (fun _ -> Deq (Cas_base.Deque.create ~capacity:256 ()))
  in
  let mk_ctx i =
    {
      w_id = i;
      w_jobs = jobs;
      w_deques = deques;
      w_pending = pending;
      w_crashed = crashed;
      w_steals = steals;
    }
  in
  (* seed worker 0 so the oldest root is the first steal target *)
  let w0 = mk_ctx 0 in
  List.iter (fun t -> push w0 t) roots;
  if jobs = 1 then begin
    (* sequential: drain the single deque LIFO; no other domain exists *)
    let (Deq d) = deques.(0) in
    let rec drain () =
      match Cas_base.Deque.pop d with
      | Some task ->
        run_task w0 task;
        (match Atomic.get crashed with Some _ -> () | None -> drain ())
      | None -> ()
    in
    drain ()
  end
  else begin
    let worker i () =
      let w = mk_ctx i in
      let (Deq own) = deques.(i) in
      let rec steal_from k =
        if k >= jobs then None
        else begin
          let v = (i + k) mod jobs in
          let (Deq dv) = deques.(v) in
          match Cas_base.Deque.steal dv with
          | Some t ->
            Atomic.incr steals;
            Some t
          | None -> steal_from (k + 1)
        end
      in
      let rec loop () =
        if Atomic.get crashed <> None then ()
        else
          match Cas_base.Deque.pop own with
          | Some task ->
            run_task w task;
            loop ()
          | None -> (
            match steal_from 1 with
            | Some task ->
              run_task w task;
              loop ()
            | None ->
              if Atomic.get pending = 0 then ()
              else begin
                Domain.cpu_relax ();
                loop ()
              end)
      in
      loop ()
    in
    let doms = List.init (jobs - 1) (fun k -> Domain.spawn (worker (k + 1))) in
    worker 0 ();
    List.iter Domain.join doms
  end;
  match Atomic.get crashed with
  | Some e -> raise e
  | None -> Atomic.get steals
