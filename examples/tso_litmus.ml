(** x86-TSO litmus tests on the store-buffer machine (§7.3): the classic
    SB (store buffering) shape, the effect of mfence, and the TTAS lock
    vs. its fenced variant.

    Run with: dune exec examples/tso_litmus.exe *)

open Cas_base
open Cas_langs
open Cas_conc
open Cas_tso

(* SB: t1: x:=1; print(y)   t2: y:=1; print(x) *)
let sb ~fence : Asm.program =
  let mk name mine other =
    {
      Asm.fname = name;
      arity = 0;
      framesize = 0;
      is_object = false;
      code =
        [
          Asm.Plea_global (Mreg.CX, mine);
          Asm.Pmov_ri (Mreg.DX, 1);
          Asm.Pstore (Mreg.CX, 0, Mreg.DX);
        ]
        @ (if fence then [ Asm.Pmfence ] else [])
        @ [
            Asm.Plea_global (Mreg.CX, other);
            Asm.Pload (Mreg.AX, Mreg.CX, 0);
            Asm.Pcall ("print", 1, false);
            Asm.Pret false;
          ];
    }
  in
  {
    Asm.funcs = [ mk "t1" "x" "y"; mk "t2" "y" "x" ];
    globals =
      [
        Genv.gvar ~init:[ Genv.Iint 0 ] "x" 1;
        Genv.gvar ~init:[ Genv.Iint 0 ] "y" 1;
      ];
  }

let show_done ts =
  Explore.TraceSet.filter (fun (_, st) -> st = Explore.SDone) ts

let () =
  Fmt.pr "== SB litmus: x:=1; r1:=y ∥ y:=1; r2:=x ==@.";
  Fmt.pr "%a@.@." Fmt.(list ~sep:cut Asm.pp_func) (sb ~fence:false).Asm.funcs;

  (match Tso.load [ sb ~fence:false ] [ "t1"; "t2" ] with
  | Error e -> Fmt.pr "load: %a@." World.pp_load_error e
  | Ok w ->
    let tr = Tso.traces w in
    Fmt.pr "under x86-TSO: %a@." Explore.TraceSet.pp (show_done tr.Explore.traces);
    Fmt.pr "  -> r1 = r2 = 0 is observable: both stores were buffered.@.@.");

  (let p = Lang.prog [ Lang.Mod (Asm.lang, sb ~fence:false) ] [ "t1"; "t2" ] in
   match World.load p ~args:[] with
   | Error e -> Fmt.pr "load: %a@." World.pp_load_error e
   | Ok w ->
     let tr, _ = Engine.traces w in
     Fmt.pr "under SC:      %a@." Explore.TraceSet.pp (show_done tr.Explore.traces);
     Fmt.pr "  -> at least one thread sees the other's store.@.@.");

  (match Tso.load [ sb ~fence:true ] [ "t1"; "t2" ] with
  | Error e -> Fmt.pr "load: %a@." World.pp_load_error e
  | Ok w ->
    let tr = Tso.traces w in
    Fmt.pr "TSO + mfence:  %a@." Explore.TraceSet.pp (show_done tr.Explore.traces);
    Fmt.pr "  -> the fence drains the buffer; SC behaviour is restored.@.@.");

  Fmt.pr "== The TTAS lock's benign race is confined ==@.";
  let client = Cas_compiler.Driver.compile (Parse.clight
    {| int x = 0;
       void inc() { int t; lock(); t = x; x = x + 1; unlock(); print(t); } |})
  in
  List.iter
    (fun (name, pi) ->
      let g =
        Objsim.check_drf_guarantee ~clients:[ client ] ~pi
          ~gamma:(Cimp.gamma_lock ()) ~entries:[ "inc"; "inc" ] ()
      in
      Fmt.pr "  %-12s: %a@." name Objsim.pp_guarantee g)
    [ ("TTAS", Locks.pi_lock); ("TTAS+fence", Locks.pi_lock_fenced) ]
