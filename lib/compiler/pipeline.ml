(** The pass registry: the single authority on what the compiler is.

    Every pass module registers its first-class [Pass.t] into the typed
    chain [fig11] (the Fig. 11 pipeline, plus the ConstProp/CSE
    extensions); everything else — the driver, the per-pass simulation
    sweep, [casc compile] — is generic over this
    chain. Adding a pass means registering it here; no other layer
    changes.

    The chain is a heterogeneous cons-list indexed by source and target
    program types, so composition is checked by the type system exactly
    as CompCert checks it by [compose_passes]. Untyped consumers fold
    over it with first-class polymorphic records ([folder], [stepper]).

    [version] is the pipeline's content hash: the registered pass names
    in order, salted with a schema version bumped whenever a pass's
    semantics changes incompatibly. It is part of every certificate-cache
    key, so a rebuilt compiler never reuses stale artifacts. *)

type ('a, 'b) chain =
  | Nil : ('a, 'a) chain
  | Cons : ('a, 'b) Pass.t * ('b, 'c) chain -> ('a, 'c) chain

open Cas_langs

(** The registered pipeline: Clight down to x86 assembly. *)
let fig11 : (Clight.program, Asm.program) chain =
  Cons
    ( Simpllocals.pass,
      Cons
        ( Cshmgen.pass,
          Cons
            ( Cminorgen.pass,
              Cons
                ( Selection.pass,
                  Cons
                    ( Rtlgen.pass,
                      Cons
                        ( Tailcall.pass,
                          Cons
                            ( Renumber.pass,
                              Cons
                                ( Constprop.pass,
                                  Cons
                                    ( Cse.pass,
                                      Cons
                                        ( Deadcode.pass,
                                          Cons
                                            ( Allocation.pass,
                                              Cons
                                                ( Tunneling.pass,
                                                  Cons
                                                    ( Linearize.pass,
                                                      Cons
                                                        ( Cleanuplabels.pass,
                                                          Cons
                                                            ( Stacking.pass,
                                                              Cons
                                                                ( Asmgen.pass,
                                                                  Nil ) ) ) )
                                                ) ) ) ) ) ) ) ) ) ) ) )

(* ------------------------------------------------------------------ *)
(* Untyped views                                                       *)
(* ------------------------------------------------------------------ *)

(** Fold over the chain with a polymorphic step function. *)
type 'acc folder = { f : 'a 'b. 'acc -> ('a, 'b) Pass.t -> 'acc }

let fold (type s t) (folder : 'acc folder) (acc : 'acc) (c : (s, t) chain) :
    'acc =
  let rec go : type a b. 'acc -> (a, b) chain -> 'acc =
   fun acc -> function Nil -> acc | Cons (p, rest) -> go (folder.f acc p) rest
  in
  go acc c

(** Registry metadata for one pass. *)
type entry = {
  e_name : string;
  e_src : string;  (** source language name *)
  e_tgt : string;  (** target language name *)
  e_optimizing : bool;
}

let entries () : entry list =
  List.rev
    (fold
       {
         f =
           (fun acc p ->
             {
               e_name = Pass.name p;
               e_src = Pass.src_lang_name p;
               e_tgt = Pass.tgt_lang_name p;
               e_optimizing = Pass.optimizing p;
             }
             :: acc);
       }
       [] fig11)

(** Names and order of the pipeline stages, for reports (Fig. 11). *)
let names () = List.map (fun e -> e.e_name) (entries ())

let length () = List.length (names ())

(** Bump when a pass's semantics changes without renaming it; every
    certificate-cache key includes [version], so this invalidates all
    previously cached artifacts and verdicts. The tool version
    [Cas_base.Version.v] is part of the salt too, so artifacts cached by
    an older build are never served to a newer one (the same constant is
    stamped into witness JSON headers by [Cas_diag]). *)
let schema_version = "casc-pipeline-1"

let version =
  Cache.digest
    ( Cas_base.Version.v,
      schema_version,
      List.map (fun e -> (e.e_name, e.e_src, e.e_tgt, e.e_optimizing))
        (entries ()) )

(* ------------------------------------------------------------------ *)
(* Running                                                             *)
(* ------------------------------------------------------------------ *)

(** A stepper decides how each pass executes (bare, cached, instrumented:
    the driver supplies it). *)
type stepper = { step : 'a 'b. ('a, 'b) Pass.t -> 'a -> 'b }

let run (type s t) (s : stepper) (c : (s, t) chain) (x : s) : t =
  let rec go : type a b. (a, b) chain -> a -> b =
   fun c x -> match c with Nil -> x | Cons (p, rest) -> go rest (s.step p x)
  in
  go c x
