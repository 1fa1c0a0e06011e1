(** Work counters and, in a traced run, timed spans around the calls
    into each layer.

    Every op adds its deterministic work (worlds, transitions, checker
    steps, ...) with [count], traced or not, so a traced run can be
    checked against an untraced one counter by counter. [span] times its
    thunk only when tracing: it adds the elapsed milliseconds under
    ["<name>.ms"] and keeps a trace event for the Chrome trace file. An
    untraced run pays one branch per span.

    Sums go to the current *pass*; [commit] folds a completed pass into
    the run's totals and [discard] drops a pass the clock cut short, so
    totals always cover whole traversals of the input pool. The mutex
    keeps a meter safe to share between threads. *)

type event = { e_name : string; e_ts : float; e_dur : float; e_tid : int }

type t = {
  tracing : bool;
  origin : float;
  lock : Mutex.t;
  pass : (string, float) Hashtbl.t;
  total : (string, float) Hashtbl.t;
  depth : (int, int) Hashtbl.t;  (** open spans per thread *)
  mutable events : event list;
  mutable n_events : int;
}

(** Trace events kept for the Chrome trace; sums keep counting past it. *)
let max_events = 100_000

(** Sum of the outermost spans, in ms: what the layer spans account for
    of the time the ops took. *)
let top_ms = "span.top.ms"

let create ~tracing =
  {
    tracing;
    origin = Unix.gettimeofday ();
    lock = Mutex.create ();
    pass = Hashtbl.create 64;
    total = Hashtbl.create 64;
    depth = Hashtbl.create 4;
    events = [];
    n_events = 0;
  }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let bump tbl name v =
  let old = Option.value ~default:0. (Hashtbl.find_opt tbl name) in
  Hashtbl.replace tbl name (old +. v)

let count t name v = locked t (fun () -> bump t.pass name v)

(** Record an already-measured outermost interval [t0, t1] (seconds
    since the epoch). *)
let record ?(top = true) t name ~t0 ~t1 =
  locked t (fun () ->
      bump t.pass (name ^ ".ms") ((t1 -. t0) *. 1e3);
      if top then bump t.pass top_ms ((t1 -. t0) *. 1e3);
      if t.n_events < max_events then begin
        t.events <-
          {
            e_name = name;
            e_ts = t0 -. t.origin;
            e_dur = t1 -. t0;
            e_tid = Thread.id (Thread.self ());
          }
          :: t.events;
        t.n_events <- t.n_events + 1
      end)

let span t name f =
  if not t.tracing then f ()
  else
    let tid = Thread.id (Thread.self ()) in
    let depth =
      locked t (fun () ->
          let d = Option.value ~default:0 (Hashtbl.find_opt t.depth tid) in
          Hashtbl.replace t.depth tid (d + 1);
          d)
    in
    let t0 = Unix.gettimeofday () in
    Fun.protect f ~finally:(fun () ->
        let t1 = Unix.gettimeofday () in
        locked t (fun () -> Hashtbl.replace t.depth tid depth);
        record ~top:(depth = 0) t name ~t0 ~t1)

(** Fold the current pass into the totals, its times (the ["*.ms"] sums)
    multiplied by [time_scale]: the runner passes the pass's speed
    correction (see {!Speed}). *)
let commit ?(time_scale = 1.) t =
  locked t (fun () ->
      Hashtbl.iter
        (fun k v ->
          bump t.total k
            (if String.ends_with ~suffix:".ms" k then v *. time_scale else v))
        t.pass;
      Hashtbl.reset t.pass)

let discard t = locked t (fun () -> Hashtbl.reset t.pass)
let get t name = Option.value ~default:0. (Hashtbl.find_opt t.total name)

let totals t =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.total [] |> List.sort compare

(** Chrome trace-event JSON: one complete ("X") event per span, in
    microseconds, one track per thread. *)
let chrome t : Bjson.t =
  let ev e =
    Bjson.Obj
      [
        ("name", Bjson.Str e.e_name);
        ("cat", Bjson.Str (List.hd (String.split_on_char '.' e.e_name)));
        ("ph", Bjson.Str "X");
        ("ts", Bjson.Num (Float.round (e.e_ts *. 1e6)));
        ("dur", Bjson.Num (Float.round (e.e_dur *. 1e6)));
        ("pid", Bjson.Num 1.);
        ("tid", Bjson.Num (float_of_int e.e_tid));
      ]
  in
  Bjson.Obj
    [
      ("traceEvents", Bjson.Arr (List.rev_map ev t.events));
      ("displayTimeUnit", Bjson.Str "ms");
    ]
