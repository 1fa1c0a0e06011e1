(** Witness back-translation (ISSUE 9 tentpole, part 2).

    Turns any SC [Cas_diag] witness into a *standalone CImp source
    program* that deterministically reproduces the recorded interaction
    — the SecurePtrs/definability idea made executable. The construction
    is a turn-variable scheduling scaffold:

    - the recorded observable actions (events, then the final race poise
      or abort) are numbered 0..K in schedule order;
    - one nullary CImp function per original thread, entries listed in
      tid order so the reloaded world's tids 1..n match the witness;
    - action [i] owned by thread [t] is compiled to: spin until
      [turn = i] (reading [turn] inside an atomic block), perform the
      action, then atomically advance [turn := i+1].

    Every access to [turn] sits inside an atomic block, and two accesses
    that are both inside atomic blocks never race under the predictor
    (Predict-1), so the scaffold itself is race-free and every
    interleaving yields the same turn-ordered behaviour:

    - [Vrefine es]: the actions are exactly [print] calls for [es]; all
      completed traces of the repro equal [es].
    - [Vabort]: the aborting thread's terminal action is [assert(0)].
    - [Vrace (a, b)]: threads [a] and [b] both wait for the *same* final
      turn [K] and then touch a dedicated [cell] global outside any
      atomic block — one write, one read — so the unique predicted race
      pair is exactly {a, b}.

    [replay] re-explores the emitted program from scratch and checks the
    recorded verdict is reproduced, which is what lets every divergence
    the fuzz driver finds grow the regression corpus as a self-checking
    artifact. *)

open Cas_base
module Witness = Cas_diag.Witness

type repro = {
  r_source : string;  (** standalone CImp source (with header comments) *)
  r_entries : string list;
  r_verdict : Witness.verdict;
}

(* ------------------------------------------------------------------ *)
(* Emission                                                            *)
(* ------------------------------------------------------------------ *)

type action =
  | Aprint of int
  | Arace_write
  | Arace_read
  | Aabort

(* negative literals: the CImp expression grammar has unary minus, but
   a parenthesized subtraction is unambiguous everywhere *)
let lit n = if n >= 0 then string_of_int n else Fmt.str "(0 - %d)" (-n)

let emit_action buf = function
  | Aprint n -> Buffer.add_string buf (Fmt.str "  print(%s);\n" (lit n))
  | Arace_write -> Buffer.add_string buf "  [cell] := 1;\n"
  | Arace_read -> Buffer.add_string buf "  w := [cell];\n"
  | Aabort -> Buffer.add_string buf "  assert(0);\n"

(* spin until [turn = i]; [w] is initialized off [i] so the first test
   is on a defined value *)
let emit_wait buf i =
  Buffer.add_string buf (Fmt.str "  w := %d;\n" (i + 1));
  Buffer.add_string buf (Fmt.str "  while ((w != %d)) {\n" i);
  Buffer.add_string buf "    atomic { w := [turn]; }\n";
  Buffer.add_string buf "  }\n"

let emit_advance buf i =
  Buffer.add_string buf (Fmt.str "  atomic { [turn] := %d; }\n" (i + 1))

let pp_verdict_header = function
  | Witness.Vrace (a, b) -> Fmt.str "race %d %d" a b
  | Witness.Vabort -> "abort"
  | Witness.Vrefine es ->
    let ns =
      List.map
        (function Event.Print n -> string_of_int n | Event.Out s -> s)
        es
    in
    String.concat " " ("refine" :: ns)

let of_witness (w : Witness.t) : (repro, string) result =
  if w.Witness.semantics <> Witness.Sc then
    Error "only SC witnesses can be back-translated"
  else begin
    let n = List.length w.Witness.entries in
    let in_range t = t >= 1 && t <= n in
    (* the observable actions, in schedule order *)
    let events =
      List.filter_map
        (fun (s : Witness.step) ->
          Option.map (fun e -> (s.Witness.s_tid, e)) s.Witness.s_event)
        w.Witness.steps
    in
    let bad_event =
      List.find_opt
        (fun (t, e) ->
          (not (in_range t)) || match e with Event.Out _ -> true | _ -> false)
        events
    in
    match bad_event with
    | Some (t, e) ->
      Error
        (Fmt.str "unsupported event %a on tid %d (not back-translatable)"
           Event.pp e t)
    | None -> (
      let print_actions =
        List.map
          (fun (t, e) ->
            match e with
            | Event.Print v -> (t, Aprint v)
            | Event.Out _ -> assert false)
          events
      in
      let k = List.length print_actions in
      (* terminal actions at index [k] never advance the turn *)
      let terminal =
        match w.Witness.verdict with
        | Witness.Vrefine _ -> Ok []
        | Witness.Vabort ->
          let t =
            match List.rev w.Witness.steps with
            | (s : Witness.step) :: _ -> s.Witness.s_tid
            | [] -> 1
          in
          if in_range t then Ok [ (t, Aabort) ]
          else Error (Fmt.str "aborting tid %d out of range" t)
        | Witness.Vrace (a, b) ->
          if a = b || (not (in_range a)) || not (in_range b) then
            Error (Fmt.str "race pair (%d, %d) not back-translatable" a b)
          else Ok [ (a, Arace_write); (b, Arace_read) ]
      in
      match terminal with
      | Error e -> Error e
      | Ok terminal ->
        let entries = List.init n (fun i -> Fmt.str "t%d" (i + 1)) in
        let has_race =
          match w.Witness.verdict with Witness.Vrace _ -> true | _ -> false
        in
        let buf = Buffer.create 512 in
        Buffer.add_string buf "// cas-fuzz repro (back-translated witness)\n";
        Buffer.add_string buf
          (Fmt.str "// entries: %s\n" (String.concat "," entries));
        Buffer.add_string buf
          (Fmt.str "// verdict: %s\n\n" (pp_verdict_header w.Witness.verdict));
        Buffer.add_string buf "object int turn = 0;\n";
        if has_race then Buffer.add_string buf "object int cell = 0;\n";
        Buffer.add_char buf '\n';
        List.iteri
          (fun i name ->
            let tid = i + 1 in
            Buffer.add_string buf (Fmt.str "void %s() {\n" name);
            List.iteri
              (fun idx (t, act) ->
                if t = tid then begin
                  emit_wait buf idx;
                  emit_action buf act;
                  emit_advance buf idx
                end)
              print_actions;
            List.iter
              (fun (t, act) ->
                if t = tid then begin
                  emit_wait buf k;
                  emit_action buf act
                end)
              terminal;
            Buffer.add_string buf "  return;\n}\n\n")
          entries;
        Ok
          {
            r_source = Buffer.contents buf;
            r_entries = entries;
            r_verdict = w.Witness.verdict;
          })
  end

(* ------------------------------------------------------------------ *)
(* Corpus file round-trip                                              *)
(* ------------------------------------------------------------------ *)

(** Parse a repro back out of its own source text: the header comments
    carry the entries and expected verdict, and the lexer skips comments
    so the full text is itself the loadable program. *)
let of_string (src : string) : (repro, string) result =
  let lines = String.split_on_char '\n' src in
  let find prefix =
    List.find_map
      (fun l ->
        if String.length l > String.length prefix
           && String.sub l 0 (String.length prefix) = prefix
        then
          Some
            (String.trim
               (String.sub l (String.length prefix)
                  (String.length l - String.length prefix)))
        else None)
      lines
  in
  match (find "// entries:", find "// verdict:") with
  | None, _ -> Error "missing '// entries:' header"
  | _, None -> Error "missing '// verdict:' header"
  | Some es, Some v -> (
    let entries =
      List.filter (fun s -> s <> "") (String.split_on_char ',' es)
    in
    let verdict =
      match String.split_on_char ' ' v with
      | [ "race"; a; b ] -> (
        match (int_of_string_opt a, int_of_string_opt b) with
        | Some a, Some b -> Ok (Witness.Vrace (a, b))
        | _ -> Error (Fmt.str "bad race header %S" v))
      | [ "abort" ] -> Ok Witness.Vabort
      | "refine" :: ns -> (
        let parsed = List.map int_of_string_opt ns in
        if List.for_all Option.is_some parsed then
          Ok
            (Witness.Vrefine
               (List.map (fun n -> Event.Print (Option.get n)) parsed))
        else Error (Fmt.str "bad refine header %S" v))
      | _ -> Error (Fmt.str "bad verdict header %S" v)
    in
    match verdict with
    | Error e -> Error e
    | Ok verdict -> Ok { r_source = src; r_entries = entries; r_verdict = verdict })

(* ------------------------------------------------------------------ *)
(* Replay                                                              *)
(* ------------------------------------------------------------------ *)

let load_world (r : repro) : (Cas_conc.World.t, string) result =
  match
    try Ok (Cas_langs.Parse.cimp r.r_source) with
    | Cas_langs.Lexer.Error (msg, pos) ->
      Error (Fmt.str "repro parse: %s at %a" msg Cas_langs.Lexer.pp_pos pos)
  with
  | Error e -> Error e
  | Ok prog -> (
    let p =
      Lang.prog [ Lang.Mod (Cas_langs.Cimp.lang, prog) ] r.r_entries
    in
    match Cas_conc.World.load p ~args:[] with
    | Error e -> Error (Fmt.str "repro load: %a" Cas_conc.World.pp_load_error e)
    | Ok w0 -> Ok w0)

(** Re-explore the repro from scratch and check the recorded verdict is
    reproduced. [budget] bounds worlds (race search) and paths (trace
    enumeration). *)
let replay ?(budget = 100_000) (r : repro) : (unit, string) result =
  match load_world r with
  | Error e -> Error e
  | Ok w0 -> (
    match r.r_verdict with
    | Witness.Vrace (a, b) -> (
      let rep =
        Cas_conc.Race.drf ~max_worlds:budget ~engine:Cas_mc.Engine.Naive w0
      in
      match rep.Cas_conc.Race.witness with
      | None ->
        if rep.Cas_conc.Race.stats.Cas_conc.Explore.truncated then
          Error "race replay: exploration truncated before any race"
        else Error "race replay: repro is DRF"
      | Some (t1, _, t2, _) ->
        if (t1 = a && t2 = b) || (t1 = b && t2 = a) then Ok ()
        else
          Error
            (Fmt.str "race replay: expected pair (%d, %d), predicted (%d, %d)"
               a b t1 t2))
    | Witness.Vabort ->
      let tr =
        fst (Cas_conc.Engine.traces ~max_steps:2000 ~max_paths:budget w0)
      in
      let aborts =
        List.exists
          (fun (_, st) -> st = Cas_conc.Explore.SAbort)
          (Cas_conc.Explore.TraceSet.elements tr.Cas_conc.Explore.traces)
      in
      if aborts then Ok () else Error "abort replay: no abort reachable"
    | Witness.Vrefine events ->
      let tr =
        fst (Cas_conc.Engine.traces ~max_steps:2000 ~max_paths:budget w0)
      in
      let ts = Cas_conc.Explore.TraceSet.elements tr.Cas_conc.Explore.traces in
      let dones =
        List.filter (fun (_, st) -> st = Cas_conc.Explore.SDone) ts
      in
      let aborts =
        List.exists (fun (_, st) -> st = Cas_conc.Explore.SAbort) ts
      in
      if aborts then Error "refine replay: unexpected abort"
      else if dones = [] then Error "refine replay: no completed trace"
      else if
        List.for_all
          (fun (es, _) ->
            List.length es = List.length events
            && List.for_all2 Event.equal es events)
          dones
      then Ok ()
      else Error "refine replay: completed traces differ from recorded events")
