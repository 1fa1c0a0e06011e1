(** Client side of the certification service: connect to a [casc serve]
    socket, exchange framed requests, correlate responses by id.

    Connections are synchronous (one request in flight at a time) —
    concurrency comes from opening many connections, which is exactly
    what the serve tests' client fleet does. *)

module Json = Cas_diag.Json

type t = { fd : Unix.file_descr; mutable next_id : int }

let connect ~(socket : string) : (t, string) result =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX socket) with
  | () -> Ok { fd; next_id = 1 }
  | exception Unix.Unix_error (e, _, _) ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    Error (Fmt.str "cannot connect to %s: %s" socket (Unix.error_message e))

let close (t : t) : unit =
  try Unix.close t.fd with Unix.Unix_error _ -> ()

(** Send [kind] and block for its response. [Error] is a transport or
    protocol failure; a served rejection (overloaded, draining, a
    verdict error) is an [Ok] response with the corresponding status. *)
let request (t : t) (kind : Protocol.kind) :
    (Protocol.response, string) result =
  let id = t.next_id in
  t.next_id <- id + 1;
  match Frame.write t.fd (Protocol.encode_request { Protocol.id; kind }) with
  | Error e -> Error (Fmt.str "send: %a" Frame.pp_error e)
  | Ok () -> (
    (* responses on a synchronous connection come back in order, but a
       server-initiated frame with another id (e.g. a bad-frame notice
       for a previous exchange) is skipped, not fatal *)
    let rec recv () =
      match Frame.read t.fd with
      | Error e -> Error (Fmt.str "receive: %a" Frame.pp_error e)
      | Ok j -> (
        match Protocol.decode_response j with
        | Error e -> Error (Fmt.str "bad response: %s" e)
        | Ok r when r.Protocol.rid = id -> Ok r
        | Ok _ -> recv ())
    in
    recv ())

let with_connection ~(socket : string) (f : t -> 'a) : ('a, string) result =
  match connect ~socket with
  | Error e -> Error e
  | Ok t ->
    let r = try Ok (f t) with e -> Error (Printexc.to_string e) in
    close t;
    r

(** Poll until the daemon accepts connections and answers a ping, or
    [timeout] seconds pass — startup synchronization for tests and
    CI. *)
let wait_ready ~(socket : string) ?(timeout = 10.) () : (unit, string) result =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    let ok =
      match connect ~socket with
      | Error _ -> false
      | Ok t ->
        let r =
          match request t Protocol.Ping with
          | Ok { Protocol.status = Protocol.Sok; _ } -> true
          | _ -> false
        in
        close t;
        r
    in
    if ok then Ok ()
    else if Unix.gettimeofday () > deadline then
      Error (Fmt.str "daemon at %s not ready after %gs" socket timeout)
    else begin
      Unix.sleepf 0.05;
      go ()
    end
  in
  go ()
