(** The race predictor at work (Fig. 9, §5): detect a data race in an
    unsynchronized counter, show the conflicting footprints, fix the
    program with a lock, and demonstrate why Lemma 9 (preemptive ≈
    non-preemptive) needs the DRF hypothesis.

    Run with: dune exec examples/race_detective.exe *)

open Cas_base
open Cas_langs
open Cas_conc

let racy_src =
  {|
  int x = 0;
  void inc() {
    int tmp;
    tmp = x;
    x = tmp + 1;
    print(tmp);
  }
|}

let () =
  Fmt.pr "== A racy counter ==@.%s@." racy_src;
  let racy =
    Lang.prog [ Lang.Mod (Clight.lang, Parse.clight racy_src) ] [ "inc"; "inc" ]
  in
  (match World.load racy ~args:[] with
  | Error e -> Fmt.pr "load error: %a@." World.pp_load_error e
  | Ok w ->
    let r = Race.drf w in
    Fmt.pr "race predictor: %a@.@." Race.pp_drf_report r;
    (* both threads can read 0: the lost update is observable *)
    let tr, _ = Engine.traces w in
    Fmt.pr "preemptive traces (note the lost update [print(0), print(0)]):@.%a@.@."
      Explore.TraceSet.pp tr.Explore.traces);

  Fmt.pr "== Fixed with a lock ==@.";
  let fixed =
    Lang.prog
      [
        Lang.Mod
          ( Clight.lang,
            Parse.clight
              {| int x = 0;
                 void inc() {
                   int tmp;
                   lock(); tmp = x; x = tmp + 1; unlock();
                   print(tmp);
                 } |} );
        Lang.Mod (Cimp.lang, Cimp.gamma_lock ());
      ]
      [ "inc"; "inc" ]
  in
  (match World.load fixed ~args:[] with
  | Error e -> Fmt.pr "load error: %a@." World.pp_load_error e
  | Ok w ->
    Fmt.pr "race predictor: %a@." Race.pp_drf_report (Race.drf w);
    Fmt.pr "NPDRF:          %a@.@." Race.pp_drf_report (Race.npdrf w);

    (* same verdict from every engine; DPOR prunes the commuting
       interleavings the footprints prove equivalent (§2.3) *)
    Fmt.pr "== The same check, engine by engine ==@.";
    List.iter
      (fun e ->
        let r = Race.drf ~engine:e ~jobs:2 w in
        Fmt.pr "%-8s %s: %a@." (Engine.to_string e)
          (if r.Race.drf then "DRF" else "RACE")
          Cas_mc.Stats.pp r.Race.engine_stats)
      Engine.all;
    Fmt.pr "@.");

  Fmt.pr "== Why Lemma 9 needs DRF ==@.";
  (* writer: x=1; x=2 ∥ reader: print(x) *)
  let observer =
    Lang.prog
      [
        Lang.Mod (Clight.lang, Parse.clight {| int x = 0; void writer() { x = 1; x = 2; } |});
        Lang.Mod (Clight.lang, Parse.clight {| int x = 0; void reader() { int r; r = x; print(r); } |});
      ]
      [ "writer"; "reader" ]
  in
  match World.load observer ~args:[] with
  | Error e -> Fmt.pr "load error: %a@." World.pp_load_error e
  | Ok w ->
    let pre, _ = Engine.traces w in
    let np = Engine.np_traces w in
    Fmt.pr "preemptive:     %a@." Explore.TraceSet.pp pre.Explore.traces;
    Fmt.pr "non-preemptive: %a@." Explore.TraceSet.pp np.Explore.traces;
    let eq = Refine.equiv pre np in
    Fmt.pr "equivalence: %a  (the racy intermediate x=1 is only visible@."
      Refine.pp_report eq;
    Fmt.pr "preemptively — exactly the gap DRF closes)@."
