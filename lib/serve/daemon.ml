(** cascd — the certification daemon behind [casc serve].

    One process, three layers of concurrency:

    - the *accept loop* (main thread) multiplexes the listening socket
      with a 0.2 s poll of the stop flag, spawning one handler thread
      per connection;
    - *connection handlers* (systhreads) read frames, decode requests,
      and answer protocol-level traffic (ping, metrics, malformed input)
      inline; compute requests go to the [Scheduler];
    - *worker domains*, spawned and joined by the [Scheduler], run the
      actual compiler/checker jobs — warm process-global memory+disk
      certificate caches included — and fan each result out to every
      connection that asked for it (in-flight coalescing).

    Responses are written under a per-connection mutex (the leader's
    worker writes for every coalesced follower), so frames never
    interleave. Shutdown — SIGTERM, a [shutdown] request, or [stop] —
    is graceful: stop accepting, refuse new work with [draining],
    finish every admitted job, flush its responses, then exit. A job is
    one of the commands the one-shot [casc] runs ([Cas_cmd]), rendered
    by the same renderer, so a daemon answer is byte-identical to the
    CLI's stdout for the same input, less the [engine:] line of [drf]
    and [tso]: an answer is a function of the request (the response
    memo and coalescing rely on it), and that line carries wall time. *)

module Json = Cas_diag.Json

type config = {
  socket : string;  (** Unix-domain socket path *)
  jobs : int;  (** worker domains *)
  queue_cap : int;  (** max distinct jobs outstanding before [overloaded] *)
  delay : float;  (** artificial seconds added to every job — a test hook
                      ([--delay-ms]) that widens the in-flight window so
                      tests can provoke coalescing deterministically *)
}

let default_config =
  { socket = "casc.sock"; jobs = 2; queue_cap = 64; delay = 0. }

type t = {
  cfg : config;
  listen_fd : Unix.file_descr;
  sched : Scheduler.t;
  metrics : Metrics.t;
  stopping : bool Atomic.t;
  conns_live : int Atomic.t;
  conns_total : int Atomic.t;
}

(* ------------------------------------------------------------------ *)
(* Request execution (worker domains)                                  *)
(* ------------------------------------------------------------------ *)

(* payloads are rendered to JSON text right here, on the worker domain
   that produced them — encode once, fan the bytes out to every waiter *)
let ok_payload fields = Json.to_string (Json.Obj fields)
let err_payload msg = Json.to_string (Protocol.error_payload msg)

(* One dispatch onto the commands [casc] runs ([Cas_cmd]); drf and tso
   run the naive engine, and their texts leave out the [engine:] line,
   which carries wall time. *)
let exec (cfg : config) (k : Protocol.kind) : Scheduler.result =
  if cfg.delay > 0. then Unix.sleepf cfg.delay;
  let ( let* ) = Result.bind in
  let parse = Cas_cmd.parse ~origin:"parse error" in
  let program ?with_lock ~entries text =
    let* client = parse text in
    Ok (Cas_cmd.program ?with_lock ~entries (Cas_cmd.Source { text; client }))
  in
  let reply text fields = Ok (ok_payload (("text", Json.Str text) :: fields)) in
  Result.map_error Cas_cmd.message
  @@
  match k with
  | Protocol.Compile { source } ->
    let* client = parse source in
    let text =
      Fmt.str "%a" Cas_cmd.pp_compile
        (Cas_compiler.Driver.compile_artifacts ~cache:true client)
    in
    reply text [ ("asm_digest", Json.Str (Cas_compiler.Cache.digest text)) ]
  | Protocol.Certify { source } ->
    let* client = parse source in
    let c = Cas_cmd.certify client in
    reply (Cas_cmd.certify_text ~indent:"" c)
      [
        ("sim_ok", Json.Bool c.Cas_cmd.sim_ok);
        ("verdicts", Json.Int (List.length c.Cas_cmd.reports));
        ("cached", Json.Int c.Cas_cmd.cached);
        ("checker_steps", Json.Int c.Cas_cmd.steps);
      ]
  | Protocol.Link { objects; entries; certify } ->
    let* o = Cas_cmd.link ~certify ~entries objects in
    let img = o.Cas_link.Linker.lk_image in
    reply (Fmt.str "%a" Cas_cmd.pp_link o)
      [
        ("image", Json.Str (Cas_link.Image.to_string img));
        ("digest", Json.Str img.Cas_link.Image.i_digest);
        ("certified", Json.Bool img.Cas_link.Image.i_certified);
      ]
  | Protocol.Drf { source; entries; with_lock } ->
    let* p = program ~with_lock ~entries source in
    let* d = Cas_cmd.drf p in
    let r = d.Cas_cmd.report in
    reply
      (Fmt.str "%a" (Cas_cmd.pp_drf ~engine_line:false) r)
      [ ("drf", Json.Bool r.Cas_conc.Race.drf) ]
  | Protocol.Tso { source; entries } ->
    let* p = program ~entries source in
    let* t = Cas_cmd.tso p in
    let g = t.Cas_cmd.guarantee in
    reply
      (Fmt.str "%a" (Cas_cmd.pp_tso ~engine_line:false) g)
      [ ("holds", Json.Bool g.Cas_tso.Objsim.holds) ]
  | Protocol.Ping | Protocol.Metrics | Protocol.Shutdown ->
    (* handled inline by the connection handler, never scheduled *)
    Error (Cas_cmd.Failed "internal: control request scheduled")

(* ------------------------------------------------------------------ *)
(* Daemon lifecycle                                                    *)
(* ------------------------------------------------------------------ *)

let create (cfg : config) : (t, string) result =
  (* a peer hanging up mid-write must be an EPIPE result, not a fatal
     signal *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* a socket at the path is an earlier daemon's and is replaced;
     anything else there is the user's and is left alone *)
  let path_free =
    match Unix.lstat cfg.socket with
    | { Unix.st_kind = Unix.S_SOCK; _ } ->
      (try Unix.unlink cfg.socket with Unix.Unix_error _ -> ());
      true
    | _ -> false
    | exception Unix.Unix_error _ -> true
  in
  if not path_free then
    Error
      (Fmt.str "cannot listen on %s: the path exists and is not a socket"
         cfg.socket)
  else
  match
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.bind fd (Unix.ADDR_UNIX cfg.socket);
    Unix.listen fd 128;
    fd
  with
  | exception Unix.Unix_error (e, _, _) ->
    Error (Fmt.str "cannot listen on %s: %s" cfg.socket (Unix.error_message e))
  | listen_fd ->
    let t =
      {
        cfg;
        listen_fd;
        sched = Scheduler.create ~jobs:cfg.jobs ~queue_cap:cfg.queue_cap ();
        metrics = Metrics.create ();
        stopping = Atomic.make false;
        conns_live = Atomic.make 0;
        conns_total = Atomic.make 0;
      }
    in
    Sys.set_signal Sys.sigterm
      (Sys.Signal_handle (fun _ -> Atomic.set t.stopping true));
    Ok t

(** Begin a graceful shutdown (idempotent, signal-safe). *)
let stop (t : t) : unit = Atomic.set t.stopping true

let metrics_json (t : t) : Json.t =
  Metrics.to_json t.metrics
    ~extra:
      [
        ("scheduler", Scheduler.to_json t.sched);
        ( "connections",
          Json.Obj
            [
              ("live", Json.Int (Atomic.get t.conns_live));
              ("total", Json.Int (Atomic.get t.conns_total));
            ] );
      ]

(* One connection: read frames until the peer hangs up or a drain
   begins, answer control requests inline, schedule compute requests.
   Runs on its own systhread; responses for scheduled work are written
   by worker domains under [wlock]. *)
let handle_conn (t : t) (fd : Unix.file_descr) : unit =
  Atomic.incr t.conns_live;
  Atomic.incr t.conns_total;
  let wlock = Mutex.create () in
  let inflight = Atomic.make 0 in
  (* [payload] is JSON text (worker-rendered, or [ok_payload]/
     [err_payload] inline) — the frame is a cheap blit around it *)
  let send ~rid status (payload : string) : unit =
    let frame = Protocol.encode_response_raw ~rid ~status ~payload in
    Mutex.lock wlock;
    let r = Frame.write_string fd frame in
    Mutex.unlock wlock;
    (* a vanished peer is not an error: the job's result still warmed
       the caches, other waiters still got theirs *)
    ignore (r : (unit, Frame.error) result)
  in
  let finish ~t0 ~rid status (payload : string) =
    let latency_ns =
      int_of_float ((Unix.gettimeofday () -. t0) *. 1e9)
    in
    let mstatus =
      match status with
      | Protocol.Sok -> Metrics.Ok_
      | Protocol.Serror -> Metrics.Error_
      | Protocol.Soverloaded -> Metrics.Overloaded
      | Protocol.Sdraining -> Metrics.Draining
    in
    send ~rid status payload;
    Metrics.record_result t.metrics mstatus ~latency_ns
  in
  let handle (j : Json.t) : unit =
    let t0 = Unix.gettimeofday () in
    match Protocol.decode_request j with
    | Error msg ->
      Metrics.record_request t.metrics ~kind:"invalid";
      finish ~t0 ~rid:(Protocol.peek_id j) Protocol.Serror (err_payload msg)
    | Ok req -> (
      let rid = req.Protocol.id in
      Metrics.record_request t.metrics ~kind:(Protocol.kind_name req.kind);
      match req.Protocol.kind with
      | Protocol.Ping ->
        finish ~t0 ~rid Protocol.Sok (ok_payload [ ("text", Json.Str "pong") ])
      | Protocol.Metrics ->
        finish ~t0 ~rid Protocol.Sok (Json.to_string (metrics_json t))
      | Protocol.Shutdown ->
        (* acknowledge first: the drain must not race the response *)
        finish ~t0 ~rid Protocol.Sok
          (ok_payload [ ("text", Json.Str "draining") ]);
        Atomic.set t.stopping true
      | kind -> (
        let key = Protocol.request_key req in
        Atomic.incr inflight;
        let callback (r : Scheduler.result) =
          (match r with
          | Ok payload -> finish ~t0 ~rid Protocol.Sok payload
          | Error msg -> finish ~t0 ~rid Protocol.Serror (err_payload msg));
          Atomic.decr inflight
        in
        match
          Scheduler.submit t.sched ~key
            ~run:(fun () -> exec t.cfg kind)
            ~callback
        with
        | Scheduler.Hit (* callback already ran, synchronously *)
        | Scheduler.Admitted | Scheduler.Coalesced ->
          ()
        | Scheduler.Overloaded ->
          Atomic.decr inflight;
          finish ~t0 ~rid Protocol.Soverloaded
            (err_payload "server overloaded: queue full")
        | Scheduler.Draining ->
          Atomic.decr inflight;
          finish ~t0 ~rid Protocol.Sdraining (err_payload "server draining")))
  in
  let should_stop () = Atomic.get t.stopping in
  let rec loop () =
    match Frame.read ~should_stop fd with
    | Error (Frame.Closed | Frame.Stopped) -> ()
    | Error (Frame.Malformed _ as e) ->
      (* the frame itself was sound (payload fully consumed), so the
         stream is still in sync: answer and keep serving *)
      Metrics.record_bad_frame t.metrics;
      send ~rid:(-1) Protocol.Serror
        (err_payload (Fmt.str "%a" Frame.pp_error e));
      loop ()
    | Error ((Frame.Bad_length _ | Frame.Oversized _) as e) ->
      (* framing is lost (payload bytes unread): answer, then hang up *)
      Metrics.record_bad_frame t.metrics;
      send ~rid:(-1) Protocol.Serror
        (err_payload (Fmt.str "%a" Frame.pp_error e))
    | Ok j ->
      handle j;
      loop ()
  in
  loop ();
  (* every scheduled job for this connection still owes a response
     frame; the fd must outlive them *)
  while Atomic.get inflight > 0 do
    Thread.yield ();
    Unix.sleepf 0.005
  done;
  (try Unix.close fd with Unix.Unix_error _ -> ());
  Atomic.decr t.conns_live

(** Serve until [stop] (or SIGTERM, or a [shutdown] request), then drain
    and clean up. Returns the final metrics document. *)
let run (t : t) : Json.t =
  let threads = ref [] in
  while not (Atomic.get t.stopping) do
    match Unix.select [ t.listen_fd ] [] [] 0.2 with
    | [], _, _ -> ()
    | _ -> (
      match Unix.accept t.listen_fd with
      | fd, _ -> threads := Thread.create (handle_conn t) fd :: !threads
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ())
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  (* graceful: admitted jobs finish and their responses flush before
     the handlers (waiting on their inflight counters) let go *)
  Scheduler.drain t.sched;
  List.iter Thread.join !threads;
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  (try Unix.unlink t.cfg.socket with Unix.Unix_error _ -> ());
  metrics_json t
