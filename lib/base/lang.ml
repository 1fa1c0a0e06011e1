(** The abstract module language tl = (Module, Core, InitCore, ↦) of
    Fig. 4, realized as a record of operations over an abstract [core]
    type.

    A local step [F ⊢ (κ, σ) -ι->_δ (κ', σ')] is modelled by [step]
    returning the *set* (list) of successors; nondeterminism is the list,
    so the paper's [det(tl)] becomes "every reachable core has at most one
    successor", a property [Cascompcert.Simulation] checks at runtime.
    An empty successor list on a core that has not returned means the
    module is stuck, which the global semantics treats as [abort]. *)

type 'core succ =
  | Next of Msg.t * Footprint.t * 'core * Memory.t
  | Stuck_abort  (** explicit abort, e.g. a failed [assert] in CImp *)

type ('code, 'core) t = {
  name : string;  (** language name, e.g. "Clight", "RTL", "x86" *)
  init_core :
    genv:Genv.t -> 'code -> entry:string -> args:Value.t list -> 'core option;
      (** InitCore: [None] if [entry] is not defined by this module. *)
  step : Flist.t -> 'core -> Memory.t -> 'core succ list;
  after_external : 'core -> Value.t option -> 'core option;
      (** resume a core waiting at a [Call] with the callee's return value *)
  hash_core : Hashx.t -> 'core -> unit;
      (** stream the same state into a hash accumulator, for the cheap
          fixed-width world keys; must refine the equality of [pp_core]'s
          text. Clight, CImp and x86, the languages every explored world
          is keyed through, stream their cores by hand; the mid-pipeline
          IRs stream their printed text ([hash_printed]). *)
  hash_fundef : Hashx.t -> 'code -> string -> unit;
      (** stream the *definition* of one named function — its body,
          parameters and frame layout, nothing else — so a function's
          code is nameable by a 16-byte digest ([digest_fundef]). Every
          IR finds the function and streams it with [Hashx.value], in a
          canonical form where its record holds a map. Streams nothing
          when the module does not define the name. *)
  pp_core : Format.formatter -> 'core -> unit;
      (** prints a core; its text is the core's canonical encoding for
          state-space memoization *)
  globals_of : 'code -> Genv.gvar list;
      (** the ge declared by a module of this language *)
  defs_of : 'code -> (string * int) list;
      (** the function symbols a module *defines*, with their arities —
          the export table of the module. [Load] uses it to reject
          duplicate definitions across modules, and the linker
          ([Cas_link]) to build symbol tables. *)
}

(** A module of the program: a language paired with code in it — the
    (tl, ge, π) triples of Fig. 4, with ge recoverable via [globals_of]. *)
type modu = Mod : ('code, 'core) t * 'code -> modu

(** A running core with its language, existentially packed so that threads
    in different languages live in one thread pool. *)
type xcore = XCore : ('code, 'core) t * 'core -> xcore

let xcore_fingerprint (XCore (l, c)) = l.name ^ "|" ^ Fmt.str "%a" l.pp_core c
let pp_xcore ppf (XCore (l, c)) = Fmt.pf ppf "%s:%a" l.name l.pp_core c

(** A [hash_core] that streams [pp]'s text, so that its classes are
    [pp]'s by construction: for the IRs whose cores key no world outside
    tests and are hashed only by [audit_core]. *)
let hash_printed pp st c = Hashx.string st (Fmt.str "%a" pp c)

(** Two-lane hash of a packed core, in [xcore_fingerprint]'s classes. *)
let xcore_hash (XCore (l, c)) =
  let st = Hashx.create () in
  Hashx.string st l.name;
  Hashx.char st '|';
  l.hash_core st c;
  Hashx.out st

(** 16-byte content digest of one function's definition in a packed
    module — the unit of certification for function-granular
    recertification. The language name is part of the stream, so the
    same body at two pipeline stages digests differently; absent
    functions digest to the bare [lang:name|] prefix, which no defined
    function can collide with (every definition streams its bytes'
    length and the bytes after it). *)
let digest_fundef (Mod (l, code)) (name : string) : string =
  let st = Hashx.create () in
  Hashx.string st l.name;
  Hashx.char st ':';
  Hashx.string st name;
  Hashx.char st '|';
  l.hash_fundef st code name;
  Hashx.key_of (Hashx.out st)

(* ------------------------------------------------------------------ *)
(* Collision audit (--paranoid-fp)                                     *)
(* ------------------------------------------------------------------ *)

(** Empirical collision audit for the [hash_core] streamers, scoped to
    one certification: every core fed to [audit_core] is hashed *and*
    fingerprinted, and a 16-byte hash key observed with two distinct
    canonical fingerprints is recorded as a collision. The simulation
    checker audits every core it visits when it is given an audit; of
    the pipeline's stages, Clight and x86 have hand-written streamers
    for it to cross-check, the others hash their printed text. An audit
    has no lock: one certification uses it at a time. *)
type audit = {
  seen : (string, string) Hashtbl.t;  (** hash key -> fingerprint *)
  mutable bad : (string * string) list;  (** newest first *)
}

let audit () = { seen = Hashtbl.create 4096; bad = [] }

(* memory bound: past this many distinct keys, new keys are no longer
   remembered (already-seen keys keep being cross-checked) *)
let audit_cap = 200_000

(** Collisions recorded by the audit, as pairs of distinct canonical
    fingerprints that streamed to the same key. *)
let audit_collisions a = List.rev a.bad

let audit_core (type code core) (a : audit) (l : (code, core) t) (c : core) :
    unit =
  let xc = XCore (l, c) in
  let key = Hashx.key_of (xcore_hash xc) in
  let canon = xcore_fingerprint xc in
  match Hashtbl.find_opt a.seen key with
  | Some canon' ->
    if not (String.equal canon canon') then a.bad <- (canon', canon) :: a.bad
  | None ->
    if Hashtbl.length a.seen < audit_cap then Hashtbl.add a.seen key canon

(** A whole program P = let Π in f1 ∥ ... ∥ fn (Fig. 4). *)
type prog = { modules : modu list; entries : string list }

let prog modules entries = { modules; entries }

(** Link-time resolution: initialize a core for [entry] in the first module
    that defines it. *)
let resolve ~genv (modules : modu list) ~entry ~args : xcore option =
  List.find_map
    (fun (Mod (l, code)) ->
      match l.init_core ~genv code ~entry ~args with
      | Some c -> Some (XCore (l, c))
      | None -> None)
    modules

let link_genv (p : prog) =
  Genv.link (List.map (fun (Mod (l, code)) -> l.globals_of code) p.modules)

(** Function symbols defined by a packed module. *)
let defs (Mod (l, code)) = l.defs_of code

(** First function symbol defined by more than one module, if any. The
    Load rule rejects such programs: a cross-module call would silently
    resolve to whichever module happens to come first. *)
let duplicate_def (modules : modu list) : string option =
  let seen = Hashtbl.create 16 in
  List.find_map
    (fun m ->
      (* a module defining the same name twice is equally a duplicate,
         so walk the defs one by one rather than per-module sets *)
      List.find_map
        (fun (name, _) ->
          if Hashtbl.mem seen name then Some name
          else begin
            Hashtbl.add seen name ();
            None
          end)
        (defs m))
    modules
