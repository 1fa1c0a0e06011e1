(** Module certificates: the digest-chained record of the per-pass
    footprint-preserving simulation verdicts established when the module
    was compiled ([Cascompcert.Framework.check_passes]).

    The chain is seeded from the object format version and the body
    digest, and each verdict folds its (pass, entry, outcome) triple into
    the running hash. Verification recomputes the chain from the stored
    entries: flipping any byte of a verdict — or of the body the seed
    commits to — breaks the chain, so a tampered object file cannot pass
    [casc link --certify]. Outcomes embed the deterministic checker
    counters (switch points, steps per side), never run-dependent data
    like cache hits, so recompiling an unchanged unit reproduces the
    identical chain. *)

module Json = Cas_diag.Json

type entry = {
  e_pass : string;  (** pipeline stage, or "Compiler" for end-to-end *)
  e_entry : string;  (** function the co-execution started from *)
  e_tag : string;  (** "ok" | "inconclusive" | "fail" *)
  e_detail : string;  (** printed [Simulation.outcome], incl. counters *)
}

type t = {
  verdicts : entry list;
  chain : string;  (** final value of the digest chain *)
}

let outcome_tag : Cascompcert.Simulation.outcome -> string = function
  | Sim_ok _ -> "ok"
  | Sim_inconclusive _ -> "inconclusive"
  | Sim_fail _ -> "fail"

(** A certificate is passing when no recorded verdict is a failure
    (inconclusive verdicts are bounded non-counterexamples, as in
    [Framework.sim_ok]). *)
let ok (c : t) = List.for_all (fun e -> e.e_tag <> "fail") c.verdicts

let failures (c : t) = List.filter (fun e -> e.e_tag = "fail") c.verdicts

(** Chain seed: commits to the format and to the body the certificate
    certifies. *)
let seed ~version ~format ~body_digest : string =
  Cas_compiler.Cache.digest ("cao-cert", version, format, body_digest)

let fold_entry (h : string) (e : entry) : string =
  Cas_compiler.Cache.digest (h, e.e_pass, e.e_entry, e.e_tag, e.e_detail)

let chain_of ~seed (verdicts : entry list) : string =
  List.fold_left fold_entry seed verdicts

let of_reports ~seed (reports : Cascompcert.Framework.pass_sim_report list) :
    t =
  let verdicts =
    List.map
      (fun (r : Cascompcert.Framework.pass_sim_report) ->
        {
          e_pass = r.pass;
          e_entry = r.entry;
          e_tag = outcome_tag r.verdict.v_outcome;
          e_detail = Cascompcert.Simulation.outcome_text r.verdict.v_outcome;
        })
      reports
  in
  { verdicts; chain = chain_of ~seed verdicts }

(** Recompute the digest chain from the entries; [Error] explains the
    first mismatch. *)
let verify ~seed (c : t) : (unit, string) result =
  let recomputed = chain_of ~seed c.verdicts in
  if String.equal recomputed c.chain then Ok ()
  else
    Error
      (Fmt.str
         "certificate chain mismatch: recorded %s, recomputed %s (object \
          tampered or truncated)"
         c.chain recomputed)

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

let entry_to_json (e : entry) : Json.t =
  Json.Obj
    [
      ("pass", Json.Str e.e_pass);
      ("entry", Json.Str e.e_entry);
      ("tag", Json.Str e.e_tag);
      ("detail", Json.Str e.e_detail);
    ]

let entry_of_json (j : Json.t) : entry =
  {
    e_pass = Json.to_str_exn (Json.member "pass" j);
    e_entry = Json.to_str_exn (Json.member "entry" j);
    e_tag = Json.to_str_exn (Json.member "tag" j);
    e_detail = Json.to_str_exn (Json.member "detail" j);
  }

let to_json (c : t) : Json.t =
  Json.Obj
    [
      ("verdicts", Json.List (List.map entry_to_json c.verdicts));
      ("chain", Json.Str c.chain);
    ]

let of_json (j : Json.t) : t =
  {
    verdicts =
      List.map entry_of_json (Json.to_list_exn (Json.member "verdicts" j));
    chain = Json.to_str_exn (Json.member "chain" j);
  }

let pp ppf (c : t) =
  Fmt.pf ppf "@[<v>%a@ chain %s@]"
    Fmt.(
      list ~sep:cut (fun ppf e ->
          Fmt.pf ppf "%-14s %-12s %s" e.e_pass e.e_entry e.e_detail))
    c.verdicts c.chain
