(** Executable checks for well-defined languages (Def. 1).

    In the paper, wd(tl) is a proof obligation discharged in Coq for each
    concrete language. Here each item becomes a runtime check on concrete
    configurations; the test suite runs them over many reachable
    configurations of every language we instantiate (Clight, the IRs, x86,
    CImp), which is the empirical analogue of the Coq lemmas. *)

type violation = {
  item : int;  (** which item of Def. 1 *)
  detail : string;
}

(* LEqPre(σ1, σ2, δ, F) — Fig. 6. *)
let leqpre m1 m2 (d : Footprint.t) f =
  let ws = Footprint.ws_set d in
  Memory.eq_on (Footprint.rs_set d) m1 m2
  && Addr.Set.equal
       (Addr.Set.filter (fun a -> Addr.Set.mem a ws) (Memory.dom m1))
       (Addr.Set.filter (fun a -> Addr.Set.mem a ws) (Memory.dom m2))
  && Addr.Set.equal
       (Addr.Set.filter (Flist.owns_addr f) (Memory.dom m1))
       (Addr.Set.filter (Flist.owns_addr f) (Memory.dom m2))

(* LEqPost(σ1, σ2, δ, F) — Fig. 6. *)
let leqpost m1 m2 (d : Footprint.t) f =
  Memory.eq_on (Footprint.ws_set d) m1 m2
  && Addr.Set.equal
       (Addr.Set.filter (Flist.owns_addr f) (Memory.dom m1))
       (Addr.Set.filter (Flist.owns_addr f) (Memory.dom m2))

(** Items (1) and (2): forward and LEffect, checked on each successor of a
    configuration. *)
let check_effects (type code core) (lang : (code, core) Lang.t) fl core mem :
    violation list =
  List.concat_map
    (function
      | Lang.Stuck_abort -> []
      | Lang.Next (msg, fp, _, mem') ->
        let v1 =
          if Memory.forward mem mem' then []
          else
            [ { item = 1; detail = Fmt.str "not forward on %a step" Msg.pp msg } ]
        in
        let v2 =
          if Memory.leffect mem mem' fp fl then []
          else
            [ {
                item = 2;
                detail =
                  Fmt.str "LEffect violated on %a step with fp %a" Msg.pp msg
                    Footprint.pp fp;
              } ]
        in
        v1 @ v2)
    (lang.step fl core mem)

(** Item (3): determinacy of effects w.r.t. the read set. For each
    successor with footprint δ and each caller-supplied memory σ1 with
    LEqPre(σ, σ1, δ, F), some step from σ1 must produce the same message
    and footprint and a LEqPost-related result. *)
let check_locality (type code core) (lang : (code, core) Lang.t) fl core mem
    ~(perturbed : Memory.t list) : violation list =
  List.concat_map
    (function
      | Lang.Stuck_abort -> []
      | Lang.Next (msg, fp, _, mem') ->
        List.concat_map
          (fun m1 ->
            if not (leqpre mem m1 fp fl) then []
            else
              let matching =
                List.exists
                  (function
                    | Lang.Stuck_abort -> false
                    | Lang.Next (msg1, fp1, _, m1') ->
                      Msg.equal msg msg1 && Footprint.equal fp fp1
                      && leqpost mem' m1' fp fl)
                  (lang.step fl core m1)
              in
              if matching then []
              else
                [ {
                    item = 3;
                    detail =
                      Fmt.str "no matching step from LEqPre-related memory (%a)"
                        Msg.pp msg;
                  } ])
          perturbed)
    (lang.step fl core mem)

(** Item (4): the *shape* of nondeterminism only depends on memory within
    the union of all silent-step read sets. *)
let check_nondet_stability (type code core) (lang : (code, core) Lang.t) fl core
    mem ~(perturbed : Memory.t list) : violation list =
  let succs = lang.step fl core mem in
  let delta0 =
    Footprint.union_all
      (List.filter_map
         (function
           | Lang.Next (Msg.Tau, fp, _, _) -> Some fp
           | _ -> None)
         succs)
  in
  List.concat_map
    (fun m1 ->
      if not (leqpre mem m1 delta0 fl) then []
      else
        List.concat_map
          (function
            | Lang.Stuck_abort -> []
            | Lang.Next (msg1, fp1, _, _) ->
              let witnessed =
                List.exists
                  (function
                    | Lang.Stuck_abort -> false
                    | Lang.Next (msg, fp, _, _) ->
                      Msg.equal msg msg1 && Footprint.equal fp fp1)
                  succs
              in
              if witnessed then []
              else
                [ {
                    item = 4;
                    detail =
                      Fmt.str
                        "perturbed memory enables a step (%a) absent in the \
                         original"
                        Msg.pp msg1;
                  } ])
          (lang.step fl core m1))
    perturbed

(** Systematic memory perturbations used by the test harness: flip the
    value of each defined cell outside [avoid] (one perturbation per cell,
    capped) — these satisfy LEqPre for any footprint whose read set avoids
    the cell, so they are useful counterexample candidates for items (3)
    and (4). *)
let perturbations ?(cap = 16) mem ~(avoid : Addr.Set.t) : Memory.t list =
  let cells = Addr.Set.diff (Memory.dom mem) avoid in
  let picked = ref [] in
  let count = ref 0 in
  Addr.Set.iter
    (fun a ->
      if !count < cap then begin
        incr count;
        let v' =
          match Memory.peek mem a with
          | Some (Value.Vint n) -> Value.Vint (n + 1031)
          | _ -> Value.Vint 424242
        in
        match
          Memory.store
            ?perm:
              (match Memory.perm_of_block mem a.Addr.block with
              | Some p -> Some p
              | None -> None)
            mem a v'
        with
        | Ok m -> picked := m :: !picked
        | Error _ -> ()
      end)
    cells;
  !picked

(** Run every check of Def. 1 on one configuration. *)
let check_all (type code core) (lang : (code, core) Lang.t) fl core mem :
    violation list =
  let succs = lang.step fl core mem in
  let rs_all =
    Footprint.union_all
      (List.filter_map
         (function Lang.Next (_, fp, _, _) -> Some fp | _ -> None)
         succs)
  in
  let avoid =
    Addr.Set.union (Footprint.locs rs_all)
      (Addr.Set.filter (Flist.owns_addr fl) (Memory.dom mem))
  in
  let perturbed = perturbations mem ~avoid in
  check_effects lang fl core mem
  @ check_locality lang fl core mem ~perturbed
  @ check_nondet_stability lang fl core mem ~perturbed
