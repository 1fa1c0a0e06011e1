(** Peterson's mutual-exclusion algorithm — the cautionary tale.

    Peterson's algorithm is correct under sequential consistency but its
    flag/turn accesses are *data races* by the paper's definition, so
    none of the framework's guarantees apply — and indeed x86-TSO breaks
    it: both threads' flag stores can sit in their store buffers while
    each reads the other's stale flag, letting both enter the critical
    section. An mfence after the stores restores mutual exclusion.

    The demo shows all three facets:
    1. the race predictor flags the source-level races;
    2. under SC the mutual-exclusion invariant holds;
    3. under x86-TSO it fails — and the fence repairs it.

    This is the boundary of the paper's result: benign races must be
    confined to objects with race-free abstractions; Peterson's races are
    load-bearing and not confined.

    Run with: dune exec examples/peterson.exe *)

open Cas_base
open Cas_langs
open Cas_conc

(* ------------------------------------------------------------------ *)
(* Hand-written x86: thread i of Peterson with a violation detector    *)
(* ------------------------------------------------------------------ *)

(* globals: flag0 flag1 turn. Each thread announces critical-section
   entry with print(100+i) and exit with print(200+i); the global trace
   serializes events, so an overlap (two entries without an intervening
   exit) is detectable in the trace regardless of store buffering. *)
let peterson ~fence : Asm.program =
  let spin = 0 and enter = 1 in
  let mk name my_flag other_flag my_id other_id =
    {
      Asm.fname = name;
      arity = 0;
      framesize = 0;
      is_object = false;
      code =
        [
          (* flag[i] := 1 *)
          Asm.Plea_global (Mreg.CX, my_flag);
          Asm.Pmov_ri (Mreg.DX, 1);
          Asm.Pstore (Mreg.CX, 0, Mreg.DX);
          (* turn := other *)
          Asm.Plea_global (Mreg.CX, "turn");
          Asm.Pmov_ri (Mreg.DX, other_id);
          Asm.Pstore (Mreg.CX, 0, Mreg.DX);
        ]
        @ (if fence then [ Asm.Pmfence ] else [])
        @ [
            (* single Peterson check (a bounded attempt keeps the state
               space finite: if the check fails we give up rather than
               spin; the mutual-exclusion argument for entering is
               unchanged): enter iff flag[other]=0 or turn != other *)
            Asm.Plabel spin;
            Asm.Plea_global (Mreg.CX, other_flag);
            Asm.Pload (Mreg.AX, Mreg.CX, 0);
            Asm.Pcmp_ri (Mreg.AX, 0);
            Asm.Pjcc (Asm.Ceq, enter);
            Asm.Plea_global (Mreg.CX, "turn");
            Asm.Pload (Mreg.AX, Mreg.CX, 0);
            Asm.Pcmp_ri (Mreg.AX, other_id);
            Asm.Pjcc (Asm.Cne, enter);
            (* give up: busy elsewhere *)
            Asm.Pmov_ri (Mreg.AX, 300 + my_id);
            Asm.Pcall ("print", 1, false);
            Asm.Pret false;
            (* critical section bracketed by observable events *)
            Asm.Plabel enter;
            Asm.Pmov_ri (Mreg.AX, 100 + my_id);
            Asm.Pcall ("print", 1, false);  (* entering CS *)
            Asm.Pmov_ri (Mreg.AX, 200 + my_id);
            Asm.Pcall ("print", 1, false);  (* leaving CS *)
            (* flag[i] := 0 *)
            Asm.Plea_global (Mreg.CX, my_flag);
            Asm.Pmov_ri (Mreg.DX, 0);
            Asm.Pstore (Mreg.CX, 0, Mreg.DX);
            Asm.Pret false;
          ];
    }
  in
  {
    Asm.funcs =
      [ mk "p0" "flag0" "flag1" 0 1; mk "p1" "flag1" "flag0" 1 0 ];
    globals =
      [
        Genv.gvar ~init:[ Genv.Iint 0 ] "flag0" 1;
        Genv.gvar ~init:[ Genv.Iint 0 ] "flag1" 1;
        Genv.gvar ~init:[ Genv.Iint 0 ] "turn" 1;
      ];
  }

(* Mutual-exclusion monitor: count threads in the critical section;
   accepting (violating) state = 2. Run as a product search over the
   world graph — path enumeration would drown in schedule interleavings,
   the memoized product search decides it exactly (or says that its
   state cap cut it short). *)
let cs_monitor =
  ( 0,
    (fun in_cs e ->
      match e with
      | Event.Print n when n >= 100 && n < 200 -> in_cs + 1
      | Event.Print n when n >= 200 && n < 300 -> max 0 (in_cs - 1)
      | _ -> in_cs),
    (fun in_cs -> in_cs >= 2) )

let violated_sys sys w =
  let init, step_state, accept = cs_monitor in
  Explore.search sys [ w ] ~init ~step_state ~accept ~state_fp:string_of_int
    ()

(* ------------------------------------------------------------------ *)

let () =
  Fmt.pr "== 1. Peterson's flag/turn accesses are data races ==@.";
  let clight_version =
    Parse.clight
      {|
      int flag0 = 0;
      int flag1 = 0;
      int turn = 0;
      void p0() {
        flag0 = 1;
        turn = 1;
        while (flag1 && turn == 1) { }
        flag0 = 0;
      }
      void p1() {
        flag1 = 1;
        turn = 0;
        while (flag0 && turn == 0) { }
        flag1 = 0;
      }
    |}
  in
  let p = Lang.prog [ Lang.Mod (Clight.lang, clight_version) ] [ "p0"; "p1" ] in
  (match World.load p ~args:[] with
  | Error e -> Fmt.pr "load: %a@." World.pp_load_error e
  | Ok w ->
    Fmt.pr "race predictor on the Clight source: %a@.@." Race.pp_drf_report
      (Race.drf ~max_worlds:60_000 w));

  Fmt.pr "== 2. Under SC, mutual exclusion holds ==@.";
  let sc_prog fence =
    Lang.prog [ Lang.Mod (Asm.lang, peterson ~fence) ] [ "p0"; "p1" ]
  in
  (match World.load (sc_prog false) ~args:[] with
  | Error e -> Fmt.pr "load: %a@." World.pp_load_error e
  | Ok w ->
    Fmt.pr "SC, no fence: violation %a@.@." Explore.pp_search_result
      (violated_sys Engine.selection_system w));

  Fmt.pr "== 3. Under x86-TSO, the buffered flags break it ==@.";
  (match Cas_tso.Tso.load [ peterson ~fence:false ] [ "p0"; "p1" ] with
  | Error e -> Fmt.pr "load: %a@." World.pp_load_error e
  | Ok w ->
    Fmt.pr "TSO, no fence: violation %a  <- BROKEN@.@."
      Explore.pp_search_result
      (violated_sys Cas_tso.Tso.mc_system w));

  Fmt.pr "== 4. An mfence after the stores repairs it ==@.";
  match Cas_tso.Tso.load [ peterson ~fence:true ] [ "p0"; "p1" ] with
  | Error e -> Fmt.pr "load: %a@." World.pp_load_error e
  | Ok w ->
    Fmt.pr "TSO + mfence: violation %a@." Explore.pp_search_result
      (violated_sys Cas_tso.Tso.mc_system w);
    Fmt.pr
      "@.(moral: Peterson's races are not 'confined benign races' — no \
       race-free@. abstraction exists for them, so the paper's Lemma 16 does \
       not apply,@. and TSO really does break the algorithm.)@."
