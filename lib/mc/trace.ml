(** Event traces and bounded trace sets (§3.2), shared by every engine.
    Formerly private to [Cas_conc.Explore]; lifted here so the engines can
    produce them for any instantiating semantics (interleaving worlds,
    x86-TSO worlds). *)

open Cas_base

(** Termination status of an enumerated execution: [SDone] — all threads
    finished; [SAbort] — some thread aborted; [SCut] — the execution was
    cut at a cycle or at a budget (a divergent or unfinished schedule). *)
type status = SDone | SAbort | SCut

type t = Event.t list * status

let pp_status ppf = function
  | SDone -> Fmt.string ppf "done"
  | SAbort -> Fmt.string ppf "abort"
  | SCut -> Fmt.string ppf "..."

let pp ppf (es, st) =
  Fmt.pf ppf "[%a]%a" Fmt.(list ~sep:comma Event.pp) es pp_status st

(* An [Out] payload with its ['\\'] and [','] escaped, so no event's key
   holds the unescaped [','] that joins the events of a trace key. *)
let escape s =
  if not (String.exists (fun c -> c = ',' || c = '\\') s) then s
  else begin
    let b = Buffer.create (String.length s + 4) in
    String.iter
      (fun c ->
        if c = ',' || c = '\\' then Buffer.add_char b '\\';
        Buffer.add_char b c)
      s;
    Buffer.contents b
  end

let event_key = function
  | Event.Print _ as e -> Event.to_string e
  | Event.Out s -> "out(" ^ escape s ^ ")"

(** The trace's identity in a [Set]: its events' printed forms (with
    [Out] payloads escaped, so distinct traces get distinct keys) and its
    status, joined by [',']. *)
let key (es, st) =
  String.concat ","
    (List.map event_key es
    @ [ (match st with SDone -> "$D" | SAbort -> "$A" | SCut -> "$C") ])

module Set = struct
  module M = Map.Make (String)

  type nonrec t = t M.t

  let empty : t = M.empty
  let add tr s = M.add (key tr) tr s
  let mem tr s = M.mem (key tr) s
  let elements (s : t) = List.map snd (M.bindings s)
  let cardinal = M.cardinal
  let union a b = M.union (fun _ x _ -> Some x) a b
  let subset a b = M.for_all (fun k _ -> M.mem k b) a
  let equal a b = subset a b && subset b a
  let filter f (s : t) = M.filter (fun _ tr -> f tr) s
  let pp ppf s = Fmt.pf ppf "@[<v>%a@]" Fmt.(list ~sep:cut pp) (elements s)
end

(** An event-prefix trie: the traces an enumeration emits, collected
    without building or keying a trace per emission. A cell stands for
    one event prefix and holds one bit per status some execution ended
    in after exactly that prefix; [to_set] builds and keys each distinct
    trace once. *)
module Trie = struct
  type cell = {
    mutable ends : int;  (** bit set of [status]es *)
    mutable kids : (Event.t * cell) list;
  }

  let create () = { ends = 0; kids = [] }
  let bit = function SDone -> 1 | SAbort -> 2 | SCut -> 4
  let mark c st = c.ends <- c.ends lor bit st

  (** The cell of [c]'s prefix extended by [e], created on first use. *)
  let child c e =
    let rec find = function
      | [] ->
        let k = create () in
        c.kids <- (e, k) :: c.kids;
        k
      | (e', k) :: rest -> if Event.equal e e' then k else find rest
    in
    find c.kids

  let to_set root =
    let rec go c rev_es acc =
      let acc =
        if c.ends = 0 then acc
        else
          let es = List.rev rev_es in
          List.fold_left
            (fun acc st ->
              if c.ends land bit st = 0 then acc else Set.add (es, st) acc)
            acc [ SDone; SAbort; SCut ]
      in
      List.fold_left (fun acc (e, k) -> go k (e :: rev_es) acc) acc c.kids
    in
    go root [] Set.empty
end

type result = {
  traces : Set.t;
  complete : bool;
      (** false if a path/step budget was exhausted anywhere *)
}
