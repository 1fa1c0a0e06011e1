(** Cas_cmd — the commands [casc] and cascd share: compile, certify,
    link, drf and tso, each implemented and rendered once.

    A command takes parsed or decoded input and returns its typed result
    or an [error]. Each result has one text renderer: [casc] prints it,
    and cascd answers with it as its payload's [text]. The renderers of
    drf and tso take whether to print the [engine:] line, which carries
    wall time: [casc] prints it, cascd must not, because cascd memoizes
    its answers. [exit_code] is the one mapping from an outcome to
    [casc]'s exit status. Nothing here is module-level mutable state:
    cascd runs these functions on worker domains. *)

open Cas_base
open Cas_langs
open Cas_conc
module Driver = Cas_compiler.Driver
module Framework = Cascompcert.Framework
module Image = Cas_link.Image
module Linker = Cas_link.Linker
module Objsim = Cas_tso.Objsim
module Witness = Cas_diag.Witness

let ( let+ ) r f = Result.map f r

(* ------------------------------------------------------------------ *)
(* Errors and exit codes                                               *)
(* ------------------------------------------------------------------ *)

(** Why a command gave no result. *)
type error =
  | Failed of string  (** unreadable or malformed input *)
  | Load_failed of World.load_error  (** the program does not load *)
  | Link_failed of Linker.error

let pp_message ppf = function
  | Failed m -> Fmt.string ppf m
  | Load_failed e -> Fmt.pf ppf "load error: %a" World.pp_load_error e
  | Link_failed e -> Linker.pp_error ppf e

(** The error as cascd answers it. *)
let message = Fmt.str "%a" pp_message

(** The error as [casc] prints it on stderr. *)
let pp_error ppf = function
  | Load_failed _ as e -> pp_message ppf e
  | e -> Fmt.pf ppf "error: %a" pp_message e

(** [casc]'s exit status for an outcome whose verdict is [ok]: 0 for a
    positive verdict, 2 for a negative one, 1 for an error. A link whose
    certificates do not compose is a negative verdict. *)
let exit_code ok = function
  | Ok r -> if ok r then 0 else 2
  | Error (Link_failed (Linker.Certify_failed _)) -> 2
  | Error _ -> 1

(* ------------------------------------------------------------------ *)
(* Programs                                                            *)
(* ------------------------------------------------------------------ *)

(** Parse mini-C source. [origin] prefixes a parse error: the file name,
    [embedded program] for a witness, [parse error] for cascd. *)
let parse ~origin (src : string) : (Clight.program, error) result =
  try Ok (Parse.clight src)
  with Lexer.Error (msg, pos) ->
    Error (Failed (Fmt.str "%s: %s at %a" origin msg Lexer.pp_pos pos))

type code =
  | Source of { text : string; client : Clight.program }
      (** a mini-C client: its source text and parse *)
  | Image of Image.t  (** a linked image *)

type program = { code : code; entries : string list; with_lock : bool }

(** The program of [code], linked with γ_lock when [with_lock]. No
    [entries] means [main] for source and, for an image, the entries
    recorded at link time, then [main]: an explicit [main] must override
    an image's entries, so the default cannot live in the caller. *)
let program ?(with_lock = false) ~entries code =
  let entries =
    match (entries, code) with
    | [], Image img when img.Image.i_entries <> [] -> img.Image.i_entries
    | [], _ -> [ "main" ]
    | es, _ -> es
  in
  { code; entries; with_lock }

(** Load the program under SC: the client as Clight, or as its compiled
    x86 with [compiled]; or the image's modules. *)
let load ?(compiled = false) (p : program) : (World.t, error) result =
  let mods =
    match p.code with
    | Source { client; _ } when compiled ->
      [ Lang.Mod (Asm.lang, Driver.compile client) ]
    | Source { client; _ } -> [ Lang.Mod (Clight.lang, client) ]
    | Image img ->
      List.map (fun m -> Lang.Mod (Asm.lang, m)) (Image.asm_modules img)
  in
  let mods =
    if p.with_lock then mods @ [ Lang.Mod (Cimp.lang, Cimp.gamma_lock ()) ]
    else mods
  in
  Result.map_error
    (fun e -> Load_failed e)
    (World.load (Lang.prog mods p.entries) ~args:[])

(** Load the program's x86 clients (the compiled client, or the image's
    modules) with the TTAS spin lock on the x86-TSO machine. *)
let machine (p : program) :
    (Asm.program list * Cas_tso.Tso.world, error) result =
  let clients =
    match p.code with
    | Source { client; _ } -> [ Driver.compile client ]
    | Image img -> Image.asm_modules img
  in
  match Cas_tso.Tso.load (clients @ [ Cas_tso.Locks.pi_lock ]) p.entries with
  | Error e -> Error (Load_failed e)
  | Ok w -> Ok (clients, w)

(* ------------------------------------------------------------------ *)
(* compile / certify / link                                            *)
(* ------------------------------------------------------------------ *)

(** The asm of a compilation, as [casc compile] prints it by default. *)
let pp_compile ppf (a : Driver.artifacts) =
  Fmt.pf ppf "%a@." Fmt.(list ~sep:cut Asm.pp_func) a.Driver.asm.Asm.funcs

type certify = {
  reports : Framework.pass_sim_report list;
  sim_ok : bool;  (** every pass simulates *)
  cached : int;  (** verdicts served by the certificate cache *)
  steps : int;
      (** the reports' [checker_steps], summed: the length of every
          co-execution certified in this call. Two pairs that share a
          stage's run each count it, so this is not the number of steps
          the checker executed *)
}

(** The per-pass footprint-preserving simulation verdicts of a client.
    With an [audit] every verdict is checked afresh, never read from the
    cache, and every core the checker visits is audited. *)
let certify ?audit (client : Clight.program) : certify =
  let reports = Framework.check_passes ?audit client in
  {
    reports;
    sim_ok =
      List.for_all
        (fun (r : Framework.pass_sim_report) ->
          Framework.sim_ok r.verdict.v_outcome)
        reports;
    cached = List.length (List.filter (fun r -> r.Framework.cached) reports);
    steps =
      List.fold_left (fun acc r -> acc + r.Framework.checker_steps) 0 reports;
  }

(** One line per verdict, each after [indent], written into one
    buffer: cascd's answer, and what [pp_certify] prints. *)
let certify_text ~indent (c : certify) : string =
  let b = Buffer.create (96 * List.length c.reports) in
  List.iter
    (fun r ->
      Buffer.add_string b indent;
      Framework.add_pass_sim b r;
      Buffer.add_char b '\n')
    c.reports;
  Buffer.contents b

(** [certify_text], printed and flushed. *)
let pp_certify ~indent ppf (c : certify) =
  Fmt.pf ppf "%s@?" (certify_text ~indent c)

(** Decode, resolve and link certified objects, composing their
    certificates with [certify]. Errors name an object by its file, when
    the objects were read from [files]; otherwise by its position if it
    does not decode, and by its module name after that. No [entries]
    means [main]. *)
let link ?jobs ?files ~certify ~entries (objects : string list) :
    (Linker.outcome, error) result =
  let names =
    match files with
    | Some fs -> fs
    | None -> List.mapi (fun i _ -> Fmt.str "object %d" (i + 1)) objects
  in
  let rec decode acc = function
    | [] -> Ok (List.rev acc)
    | (name, s) :: rest -> (
      match Cas_link.Objfile.of_string s with
      | Error e -> Error (Link_failed (Linker.Load_error (name, e)))
      | Ok o -> decode ((o, name) :: acc) rest)
  in
  match decode [] (List.combine names objects) with
  | Error e -> Error e
  | Ok named ->
    let label = Option.map (fun _ o -> List.assq o named) files in
    let entries = match entries with [] -> [ "main" ] | es -> es in
    Result.map_error
      (fun e -> Link_failed e)
      (Linker.link ?jobs ~certify ?label ~entries (List.map fst named))

(** The certificate-composition report of a certified link; nothing for
    a plain one. *)
let pp_link ppf (o : Linker.outcome) =
  Option.iter (Fmt.pf ppf "%a@." Framework.pp_compose) o.Linker.lk_compose

(* ------------------------------------------------------------------ *)
(* drf / tso                                                           *)
(* ------------------------------------------------------------------ *)

(** A schedule to a failure, as a witness records it. *)
type schedule = Witness.verdict * Witness.step list

type drf = {
  world : World.t;  (** the initial world *)
  report : Race.drf_report;
  race : schedule option;  (** with [capture], the schedule to the race *)
}

(** DRF of the program under SC (Fig. 9), with worlds keyed by [keys].
    With [capture] the exploration also records the schedule to the race
    it reports; capture always keys worlds by their fingerprints. *)
let drf ?(engine = Engine.Naive) ?jobs ?keys ?(capture = false)
    (p : program) : (drf, error) result =
  let+ world = load p in
  if not capture then
    { world; report = Race.drf ~engine ?jobs ?keys world; race = None }
  else
    let rc = Cas_diag.Capture.race ~engine ?jobs world in
    let steps = rc.Cas_diag.Capture.rc_steps in
    let race =
      Option.map (fun v -> (v, steps)) rc.Cas_diag.Capture.rc_verdict
    in
    { world; report = rc.Cas_diag.Capture.rc_report; race }

let pp_drf ~engine_line ppf (r : Race.drf_report) =
  Fmt.pf ppf "%a@." Race.pp_drf_report r;
  if engine_line then
    Fmt.pf ppf "engine: %a@." Cas_mc.Stats.pp r.Race.engine_stats

type tso = { machine : Cas_tso.Tso.world; guarantee : Objsim.guarantee_report }

(** Lemma 16: the program's x86 clients with the TTAS spin lock under
    x86-TSO refine them with γ_lock under SC, with worlds keyed by
    [keys] on both sides. *)
let tso ?(engine = Engine.Naive) ?jobs ?keys (p : program) :
    (tso, error) result =
  let+ clients, machine = machine p in
  let guarantee =
    Objsim.check_drf_guarantee ~engine ?jobs ?keys ~clients
      ~pi:Cas_tso.Locks.pi_lock ~gamma:(Cimp.gamma_lock ()) ~entries:p.entries
      ()
  in
  { machine; guarantee }

(** The TSO traces Lemma 16 was decided on, the engine's accounting of
    their enumeration, and the verdict. *)
let pp_tso ~engine_line ppf (g : Objsim.guarantee_report) =
  Fmt.pf ppf "x86-TSO traces (with the TTAS spin lock):@.%a@."
    Explore.TraceSet.pp g.Objsim.tso_traces;
  if engine_line then
    Fmt.pf ppf "engine: %a@." Cas_mc.Stats.pp g.Objsim.tso_stats;
  Fmt.pf ppf "Lemma 16: %a@." Objsim.pp_guarantee g

(** A schedule of the TSO machine realizing the failure of a Lemma 16
    check: an unmatched completed trace, else a reachable abort. *)
let tso_failure (t : tso) : schedule option =
  let s0 = Cas_diag.Sem.tso t.machine in
  let realize (es, status) =
    if status <> Explore.SDone then None
    else
      Option.map
        (fun steps -> (Witness.Vrefine es, steps))
        (Cas_diag.Capture.schedule_for_events s0 ~events:es ())
  in
  match List.find_map realize t.guarantee.Objsim.missing with
  | Some s -> Some s
  | None ->
    Option.map
      (fun steps -> (Witness.Vabort, steps))
      (Cas_diag.Capture.schedule_to_abort s0 ())
