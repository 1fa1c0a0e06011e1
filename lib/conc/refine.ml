(** Event-trace refinement ⊑ and equivalence ≈ (§3.2), decided on bounded
    trace sets produced by the exploration engines.

    Because exploration cuts cycles and budgets, the comparison is
    bounded-sound: we compare (a) the sets of completed (Done) traces,
    (b) abort reachability, and (c) the prefix closures of all observed
    event sequences. Reports carry the completeness flags so callers can
    see when a verdict is conditional on the bound. *)

open Cas_base

type report = {
  holds : bool;
  lhs_complete : bool;
  rhs_complete : bool;
  missing : Explore.trace list;  (** lhs traces not matched in rhs *)
}

let pp_report ppf r =
  if r.holds then
    Fmt.pf ppf "holds%s"
      (if r.lhs_complete && r.rhs_complete then "" else " (bounded)")
  else
    Fmt.pf ppf "FAILS: unmatched traces %a"
      Fmt.(list ~sep:comma Explore.pp_trace)
      r.missing

let prefixes (es : Event.t list) : Event.t list list =
  let rec go acc pre = function
    | [] -> List.rev acc
    | e :: rest -> go ((List.rev (e :: pre)) :: acc) (e :: pre) rest
  in
  [] :: go [] [] es

let prefix_closure (ts : Explore.TraceSet.t) : Explore.TraceSet.t =
  List.fold_left
    (fun acc (es, _) ->
      List.fold_left
        (fun acc p -> Explore.TraceSet.add (p, Explore.SCut) acc)
        acc (prefixes es))
    Explore.TraceSet.empty
    (Explore.TraceSet.elements ts)

let done_traces ts =
  Explore.TraceSet.filter (fun (_, st) -> st = Explore.SDone) ts

let has_abort ts =
  Explore.TraceSet.elements ts |> List.exists (fun (_, st) -> st = Explore.SAbort)

(** [refines ~lhs ~rhs]: every behaviour of [lhs] is a behaviour of [rhs]
    (lhs ⊑ rhs — e.g. target ⊑ source for compiler correctness). *)
let refines ~(lhs : Explore.trace_result) ~(rhs : Explore.trace_result) : report
    =
  let ldone = done_traces lhs.traces and rdone = done_traces rhs.traces in
  let dones_ok = Explore.TraceSet.subset ldone rdone in
  let abort_ok = (not (has_abort lhs.traces)) || has_abort rhs.traces in
  let prefix_ok =
    Explore.TraceSet.subset (prefix_closure lhs.traces)
      (prefix_closure rhs.traces)
  in
  let missing =
    Explore.TraceSet.elements ldone
    |> List.filter (fun tr -> not (Explore.TraceSet.mem tr rdone))
  in
  {
    holds = dones_ok && abort_ok && prefix_ok;
    lhs_complete = lhs.complete;
    rhs_complete = rhs.complete;
    missing;
  }

(** [equiv a b]: trace-set equivalence ≈ up to the exploration bound. *)
let equiv (a : Explore.trace_result) (b : Explore.trace_result) : report =
  let r1 = refines ~lhs:a ~rhs:b in
  let r2 = refines ~lhs:b ~rhs:a in
  {
    holds = r1.holds && r2.holds;
    lhs_complete = a.complete;
    rhs_complete = b.complete;
    missing = r1.missing @ r2.missing;
  }

(** Convenience: load a program and enumerate its traces under the
    preemptive semantics, with a selectable exploration engine (naive,
    DPOR, parallel DPOR). *)
let traces_of_pre ?engine ?jobs ?max_steps ?max_paths (p : Lang.prog) :
    (Explore.trace_result * Cas_mc.Stats.t, World.load_error) result =
  match World.load p ~args:[] with
  | Error e -> Error e
  | Ok w0 -> Ok (Engine.traces ?engine ?jobs ?max_steps ?max_paths w0)

(** [traces_of_pre] under the non-preemptive semantics (naive only). *)
let traces_of_np ?max_steps ?max_paths (p : Lang.prog) :
    (Explore.trace_result, World.load_error) result =
  match World.load p ~args:[] with
  | Error e -> Error e
  | Ok w0 -> Ok (Engine.np_traces ?max_steps ?max_paths w0)
