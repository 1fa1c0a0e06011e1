(** The extended framework (Fig. 3): object simulation π_o ≼ᵒ γ_o and the
    strengthened DRF-guarantee theorem (Lem. 16 / Thm. 15), as empirical
    checks.

    - [check_object_sim] exercises the x86-TSO object implementation
      against its CImp specification entry by entry: starting from every
      abstract object state, each operation must complete with a related
      return value and leave a related object state once its buffer has
      drained (or both sides must block, as lock() does on a held lock).
      This is the executable face of π_o ≼ᵒ γ_o.
    - [check_drf_guarantee] is Lem. 16: for a whole program, the traces of
      the all-x86 program with the racy object under TSO are included in
      the traces of the program with the abstract object under SC. *)

open Cas_base
open Cas_langs
open Cas_conc

(* ------------------------------------------------------------------ *)
(* Lemma 16: whole-program TSO-vs-SC refinement                        *)
(* ------------------------------------------------------------------ *)

type guarantee_report = {
  holds : bool;
  detail : string;
  tso_traces : Explore.TraceSet.t;
  tso_stats : Cas_mc.Stats.t;  (** the TSO-side enumeration's accounting *)
  sc_traces : Explore.TraceSet.t;
  missing : Explore.trace list;
      (** TSO traces unmatched under SC — the refinement counterexamples
          [Cas_diag] renders when the guarantee fails *)
}

let pp_guarantee ppf r =
  Fmt.pf ppf "%s — %s"
    (if r.holds then "holds" else "FAILS")
    r.detail

(** [check_drf_guarantee ~clients ~pi ~gamma ~entries]: the program
    Π^tso = clients + π under x86-TSO refines Π^sc = clients + γ under SC
    (clients are x86 modules, γ is a CImp module). [engine] selects the
    exploration engine on both sides (comparing completed traces and
    abort reachability, which every engine preserves), and [keys] the
    state keys of both sides' systems ([Hash] by default). *)
let check_drf_guarantee ?(max_steps = 3000) ?(max_paths = 150_000)
    ?(engine = Cas_mc.Engine.Naive) ?jobs ?(keys = Cas_mc.Mcsys.Hash)
    ~(clients : Asm.program list) ~(pi : Asm.program) ~(gamma : Cimp.program)
    ~(entries : string list) () : guarantee_report =
  let fail detail =
    {
      holds = false;
      detail;
      tso_traces = Explore.TraceSet.empty;
      tso_stats = Cas_mc.Stats.zero ~engine:(Cas_mc.Engine.to_string engine);
      sc_traces = Explore.TraceSet.empty;
      missing = [];
    }
  in
  match Tso.load (clients @ [ pi ]) entries with
  | Error e -> fail (Fmt.str "TSO load: %a" World.pp_load_error e)
  | Ok w_tso -> (
    let sc_prog =
      Lang.prog
        (List.map (fun c -> Lang.Mod (Asm.lang, c)) clients
        @ [ Lang.Mod (Cimp.lang, gamma) ])
        entries
    in
    match World.load sc_prog ~args:[] with
    | Error e -> fail (Fmt.str "SC load: %a" World.pp_load_error e)
    | Ok w_sc ->
      let traces sys w =
        Cas_mc.Engine.traces ~engine ?jobs ~max_steps ~max_paths sys [ w ]
      in
      let t_tso, tso_stats = traces (Tso.system keys) w_tso in
      let t_sc = fst (traces (Engine.selection keys) w_sc) in
      let r = Refine.refines ~lhs:t_tso ~rhs:t_sc in
      {
        holds = r.Refine.holds;
        detail =
          Fmt.str "%a (tso: %d traces%s, sc: %d traces%s)" Refine.pp_report r
            (Explore.TraceSet.cardinal t_tso.Explore.traces)
            (if t_tso.Explore.complete then "" else "*")
            (Explore.TraceSet.cardinal t_sc.Explore.traces)
            (if t_sc.Explore.complete then "" else "*");
        tso_traces = t_tso.Explore.traces;
        tso_stats;
        sc_traces = t_sc.Explore.traces;
        missing = r.Refine.missing;
      })

(* ------------------------------------------------------------------ *)
(* Module-local object simulation π_o ≼ᵒ γ_o                           *)
(* ------------------------------------------------------------------ *)

type obj_sim_report = {
  entry : string;
  init_state : int;
  ok : bool;
  reason : string;
}

let pp_obj_sim ppf r =
  Fmt.pf ppf "%-8s L=%d: %s%s" r.entry r.init_state
    (if r.ok then "ok" else "FAIL")
    (if r.reason = "" then "" else " — " ^ r.reason)

(** Outcomes of running one object operation as a single thread. *)
type op_result =
  | Completes of Value.t * int list  (** return value, final object cells *)
  | Blocks  (** no terminating execution within bound, e.g. lock() on a
                held lock *)
  | Aborts

let object_cells genv mem =
  (* all Object-permission cells, in address order *)
  Memory.dom mem |> Addr.Set.elements
  |> List.filter_map (fun a ->
         match Memory.perm_of_block mem a.Addr.block with
         | Some Perm.Object -> (
           match Memory.peek mem a with
           | Some (Value.Vint n) -> Some n
           | _ -> Some min_int)
         | _ -> None)
  |> fun cells ->
  ignore genv;
  cells

(** Outcomes of a single-threaded run of [sys] from [w0]: depth-first,
    each world once, at most [bound] steps deep; [cells] reads the object
    state of a finished world. *)
let outcomes (sys : 'w Cas_mc.Mcsys.t) ~(cells : 'w -> int list) ~bound w0 :
    op_result list =
  let results = ref [] in
  let seen = Hashtbl.create 64 in
  let rec go w depth =
    let fp = sys.Cas_mc.Mcsys.fingerprint w in
    if Hashtbl.mem seen fp || depth > bound then ()
    else begin
      Hashtbl.add seen fp ();
      if sys.Cas_mc.Mcsys.all_done w then
        results := Completes (Value.Vint 0, cells w) :: !results
      else
        List.iter
          (fun (tr : 'w Cas_mc.Mcsys.trans) ->
            match tr.Cas_mc.Mcsys.target with
            | Cas_mc.Mcsys.Abort -> results := Aborts :: !results
            | Cas_mc.Mcsys.Next w' -> go w' (depth + 1))
          (sys.Cas_mc.Mcsys.trans w)
    end
  in
  go w0 0;
  if !results = [] then [ Blocks ] else !results

(** Run [entry] of the TSO object as a single thread from lock state
    [l0], draining buffers at the end. *)
let run_pi (pi : Asm.program) ~entry ~l0 ~bound : op_result list =
  let pi =
    {
      pi with
      Asm.globals =
        List.map
          (fun (g : Genv.gvar) ->
            if g.Genv.gname = "L" then
              { g with Genv.ginit = [ Genv.Iint l0 ] }
            else g)
          pi.Asm.globals;
    }
  in
  match Tso.load [ pi ] [ entry ] with
  | Error _ -> [ Aborts ]
  | Ok w0 ->
    outcomes Tso.mc_system ~bound w0 ~cells:(fun w ->
        object_cells w.Tso.genv w.Tso.mem)

(** Run [entry] of the CImp specification as a single thread under SC. *)
let run_gamma (gamma : Cimp.program) ~entry ~l0 ~bound : op_result list =
  let gamma =
    {
      gamma with
      Cimp.globals =
        List.map
          (fun (g : Genv.gvar) ->
            if g.Genv.gname = "L" then { g with Genv.ginit = [ Genv.Iint l0 ] }
            else g)
          gamma.Cimp.globals;
    }
  in
  let prog = Lang.prog [ Lang.Mod (Cimp.lang, gamma) ] [ entry ] in
  match World.load prog ~args:[] with
  | Error _ -> [ Aborts ]
  | Ok w0 ->
    outcomes Engine.selection_system ~bound w0 ~cells:(fun w ->
        object_cells w.World.genv w.World.mem)

let results_match (pi_rs : op_result list) (g_rs : op_result list) : bool =
  (* every π outcome must be matched by a γ outcome *)
  List.for_all
    (fun pr ->
      List.exists
        (fun gr ->
          match (pr, gr) with
          | Completes (_, s1), Completes (_, s2) -> s1 = s2
          | Blocks, Blocks -> true
          | Aborts, Aborts -> true
          | _ -> false)
        g_rs)
    pi_rs

(** Check π_o ≼ᵒ γ_o entry by entry from every abstract object state. *)
let check_object_sim ?(bound = 400) ~(pi : Asm.program)
    ~(gamma : Cimp.program) ~(entries : (string * int list) list) () :
    obj_sim_report list =
  List.concat_map
    (fun (entry, states) ->
      List.map
        (fun l0 ->
          let pi_rs = run_pi pi ~entry ~l0 ~bound in
          let g_rs = run_gamma gamma ~entry ~l0 ~bound in
          let ok = results_match pi_rs g_rs in
          {
            entry;
            init_state = l0;
            ok;
            reason =
              (if ok then ""
               else
                 Fmt.str "π outcomes %d vs γ outcomes %d unmatched"
                   (List.length pi_rs) (List.length g_rs));
          })
        states)
    entries
