(** Tests for the footprint-preserving module-local simulation checker
    (Def. 2/3): it must accept correct compilations and — crucially —
    reject miscompilations of every flavour the definition guards
    against: wrong events, extra shared writes (FPmatch), optimizations
    that cache shared state across switch points (the §2.2 example), and
    nondeterministic targets (det(tl)). Its verdicts over shared runs
    must equal, record for record, those of the lockstep checker kept
    here as [Reference]. *)

open Cas_base
open Cas_langs
open Cascompcert

let check = Alcotest.check
let tbool = Alcotest.bool

let is_ok = function Simulation.Sim_ok _ -> true | _ -> false
let is_fail = function Simulation.Sim_fail _ -> true | _ -> false

(* One check's inputs: two modules of any languages, the entry and the
   environment. The negative tests below are pairs, so the reference
   comparison can run each of them again. *)
type pair =
  | Pair : {
      src : ('c1, 'k1) Lang.t * 'c1;
      tgt : ('c2, 'k2) Lang.t * 'c2;
      entry : string;
      env : Simulation.env option;
    }
      -> pair

let pair_outcome (Pair p) =
  Simulation.check ~src:p.src ~tgt:p.tgt ~entry:p.entry ~args:[] ?env:p.env ()

let clight_pair ?env src ~entry ~tweak =
  Pair
    {
      src = (Clight.lang, Parse.clight src);
      tgt = (Clight.lang, Parse.clight tweak);
      entry;
      env;
    }

(* ------------------------------------------------------------------ *)
(* Positive cases                                                      *)
(* ------------------------------------------------------------------ *)

let test_identity_sim () =
  let p = Corpus.counter () in
  let o =
    Simulation.check ~src:(Clight.lang, p) ~tgt:(Clight.lang, p) ~entry:"inc"
      ~args:[] ()
  in
  check tbool "identity simulates" true (is_ok o)

let test_full_pipeline_sim () =
  List.iter
    (fun (name, client, entries) ->
      let asm = Cas_compiler.Driver.compile client in
      List.iter
        (fun entry ->
          let arity =
            match
              List.find_opt (fun f -> f.Clight.fname = entry) client.Clight.funcs
            with
            | Some f -> List.length f.Clight.fparams
            | None -> 0
          in
          let args = List.init arity (fun i -> Value.Vint (3 + i)) in
          let o =
            Simulation.check ~src:(Clight.lang, client) ~tgt:(Asm.lang, asm)
              ~entry ~args ()
          in
          check tbool (Fmt.str "%s/%s compiles correctly" name entry) false
            (is_fail o))
        entries)
    (Corpus.sequential_clients ())

let test_sim_with_rely_perturbation () =
  (* environment writes to the shared global between switch points; the
     compiled code must still simulate (it cannot cache x across calls) *)
  let p = Corpus.counter () in
  let asm = Cas_compiler.Driver.compile p in
  let env i =
    { Simulation.ret = Value.Vint 0; perturb = Some ("x", 0, 40 + i) }
  in
  let o =
    Simulation.check ~src:(Clight.lang, p) ~tgt:(Asm.lang, asm) ~entry:"inc"
      ~args:[] ~env ()
  in
  check tbool "simulation robust to Rely writes" false (is_fail o)

(* ------------------------------------------------------------------ *)
(* Negative cases: the checker must catch miscompilations              *)
(* ------------------------------------------------------------------ *)

let wrong_event () =
  clight_pair {| void f() { print(1); } |} ~entry:"f"
    ~tweak:{| void f() { print(2); } |}

(* target writes a shared global the source never touches: FPmatch *)
let extra_shared_write () =
  clight_pair {| int x = 0; void f() { print(0); } |} ~entry:"f"
    ~tweak:{| int x = 0; void f() { x = 1; print(0); } |}

(* a read of shared memory the source never performs: δ.rs ⊄ φ{∆} *)
let extra_shared_read () =
  clight_pair {| int x = 0; void f() { print(7); } |} ~entry:"f"
    ~tweak:{| int x = 0; void f() { int t; t = x; print(7); } |}

(* FPmatch allows target reads where the source wrote *)
let write_to_read_weakening () =
  clight_pair {| int x = 0; void f() { x = 5; print(1); } |} ~entry:"f"
    ~tweak:{| int x = 0; void f() { int t; x = 5; t = x; print(1); } |}

(* the §2.2 example: the compiler may not assume a shared global is
   unchanged across an external call. Source re-reads x after the call;
   a 'bad optimizer' caches the first read. The environment (callee)
   writes x := 9 during the call. *)
let caching_across_switch_points () =
  clight_pair
    ~env:(fun i ->
      { Simulation.ret = Value.Vint 0; perturb = Some ("x", 0, 9 + i) })
    {| int x = 0;
       void f() { int a; int b; a = x; g(); b = x; print(a + b); } |}
    ~entry:"f"
    ~tweak:
      {| int x = 0;
         void f() { int a; int b; a = x; g(); b = a; print(a + b); } |}

let wrong_return () =
  clight_pair {| int f() { return 3; } |} ~entry:"f"
    ~tweak:{| int f() { return 4; } |}

let target_abort () =
  clight_pair {| void f() { print(1); } |} ~entry:"f"
    ~tweak:{| void f() { int t; t = *0; print(1); } |}

let event_reorder () =
  clight_pair {| void f() { print(1); print(2); } |} ~entry:"f"
    ~tweak:{| void f() { print(2); print(1); } |}

(* a tail call where the source adds a global to the callee's result:
   the source must forward the callee's return and does not. The
   environment writes x during the call, so the source returns 140. *)
let dropped_tailcall ~x () =
  let src =
    Cas_compiler.Driver.compile_artifacts
      (Parse.clight
         (Fmt.str "int x = %d; int f() { int r; r = g(); return r + x; }" x))
  in
  let tgt =
    Cas_compiler.Driver.compile_artifacts
      (Parse.clight (Fmt.str "int x = %d; int f() { return g(); }" x))
  in
  Pair
    {
      src = (Rtl.lang, src.Cas_compiler.Driver.rtl);
      tgt = (Rtl.lang, tgt.Cas_compiler.Driver.rtl_tailcall);
      entry = "f";
      env =
        Some
          (fun i ->
            {
              Simulation.ret = Value.Vint 100;
              perturb = Some ("x", 0, 40 + i);
            });
    }

let tailcall_drops_work = dropped_tailcall ~x:1

(* the same with x = 0 before the call: only a forwarding check that
   reads x after the Rely write sees the dropped work *)
let unforwarded_rely_read = dropped_tailcall ~x:0

(* a call whose return the source forwards only after writing a shared
   global, against a tail call that writes nothing: the forwarded
   return's memories are unrelated. Swapped, the target forwards and
   writes where the tail-calling source writes nothing: FPmatch fails. *)
let forwarded_write ~swap () =
  let rtl src = Cas_compiler.Driver.compile_artifacts (Parse.clight src) in
  let calls =
    (rtl "int x = 0; int f() { int r; r = g(); x = 5; return r; }")
      .Cas_compiler.Driver.rtl
  in
  let tail =
    (rtl "int x = 0; int f() { return g(); }").Cas_compiler.Driver.rtl_tailcall
  in
  let src, tgt = if swap then (tail, calls) else (calls, tail) in
  Pair { src = (Rtl.lang, src); tgt = (Rtl.lang, tgt); entry = "f"; env = None }

let write_before_forwarded_return = forwarded_write ~swap:false
let forwarded_write_swapped = forwarded_write ~swap:true

(* A deliberately broken compiler pass caught by the per-pass check:
   pretend reads of globals yield 0 and fold them. *)
let broken_constprop () =
  let a =
    Cas_compiler.Driver.compile_artifacts
      (Parse.clight {| int x = 5; int f() { return x + 1; } |})
  in
  let break_fn (f : Rtl.func) =
    {
      f with
      Rtl.code =
        Rtl.IMap.map
          (function
            | Rtl.Iload (d, _, _, n) -> Rtl.Iop (Rtl.Oconst 0, d, n)
            | i -> i)
          f.Rtl.code;
    }
  in
  let rtl = a.Cas_compiler.Driver.rtl in
  Pair
    {
      src = (Rtl.lang, rtl);
      tgt =
        (Rtl.lang, { rtl with Rtl.funcs = List.map break_fn rtl.Rtl.funcs });
      entry = "f";
      env = None;
    }

(* every pair above, for the reference comparison *)
let unit_pairs =
  [
    ("wrong event", wrong_event);
    ("extra shared write", extra_shared_write);
    ("extra shared read", extra_shared_read);
    ("write-to-read weakening", write_to_read_weakening);
    ("caching across switch points", caching_across_switch_points);
    ("wrong return", wrong_return);
    ("target abort", target_abort);
    ("event reorder", event_reorder);
    ("tail call drops work", tailcall_drops_work);
    ("unforwarded Rely read", unforwarded_rely_read);
    ("write before a forwarded return", write_before_forwarded_return);
    ("forwarded return writes, swapped", forwarded_write_swapped);
    ("broken pass", broken_constprop);
  ]

let rejects what pair () =
  check tbool (what ^ " detected") true (is_fail (pair_outcome (pair ())))

let test_allows_write_to_read_weakening () =
  check tbool "read-after-write within source ws allowed" false
    (is_fail (pair_outcome (write_to_read_weakening ())))

(* ------------------------------------------------------------------ *)
(* det(tl)                                                             *)
(* ------------------------------------------------------------------ *)

let test_det_on_run () =
  let p = Cas_compiler.Driver.compile (Corpus.const_cse ()) in
  match Genv.link [ p.Asm.globals ] with
  | Error _ -> Alcotest.fail "link"
  | Ok genv -> (
    let mem = Genv.init_memory genv in
    let fl = Flist.make ~offset:(Genv.block_count genv) ~stride:1 in
    match Asm.init_core ~genv p ~entry:"main" ~args:[] with
    | None -> Alcotest.fail "init"
    | Some core ->
      check tbool "compiled x86 deterministic" true
        (Simulation.det_on_run Asm.lang fl core mem ~bound:10_000))

(* ------------------------------------------------------------------ *)
(* β injectivity                                                       *)
(* ------------------------------------------------------------------ *)

let test_beta_injective () =
  let b = Simulation.beta_create () in
  let a1 = Addr.make 1 0 and a2 = Addr.make 2 0 and a3 = Addr.make 3 0 in
  check tbool "fresh pair" true (Simulation.beta_match b a1 a2);
  check tbool "consistent repeat" true (Simulation.beta_match b a1 a2);
  check tbool "source remap rejected" false (Simulation.beta_match b a1 a3);
  check tbool "target remap rejected" false (Simulation.beta_match b a3 a2)

(* ------------------------------------------------------------------ *)
(* ReachClose (Def. 4)                                                 *)
(* ------------------------------------------------------------------ *)

let test_reach_close_corpus () =
  List.iter
    (fun (name, client, entries) ->
      List.iter
        (fun entry ->
          let arity =
            match
              List.find_opt (fun f -> f.Clight.fname = entry) client.Clight.funcs
            with
            | Some f -> List.length f.Clight.fparams
            | None -> 0
          in
          let args = List.init arity (fun i -> Value.Vint (2 + i)) in
          let vs =
            Simulation.check_reach_close Clight.lang client ~entry ~args ()
          in
          Alcotest.(check int)
            (Fmt.str "%s/%s reach-closed" name entry)
            0 (List.length vs))
        entries)
    (Corpus.sequential_clients ())

let test_reach_close_object () =
  let vs =
    Simulation.check_reach_close Cimp.lang (Corpus.gamma_lock ())
      ~entry:"unlock" ~args:[] ()
  in
  Alcotest.(check int) "gamma_lock unlock reach-closed" 0 (List.length vs)

let test_reach_close_catches_escape () =
  (* storing the address of a stack local into a shared global breaks
     closed(S, Σ): a pointer from S into the freelist *)
  let escaping =
    Parse.clight {| int p = 0; void f() { int b; b = 0; p = &b; print(1); } |}
  in
  let vs = Simulation.check_reach_close Clight.lang escaping ~entry:"f" ~args:[] () in
  check tbool "stack-pointer escape detected" true (List.length vs > 0)

(* ------------------------------------------------------------------ *)
(* The lockstep checker, kept as the reference for shared runs         *)
(* ------------------------------------------------------------------ *)

(* The checker as it was before each stage's run was shared between
   the pairs that read it: both sides stepped from scratch, in lockstep,
   for every pair, with the scope and FPmatch obligations over [Addr.Set]
   views. Kept as an executable oracle, with two fixes to the forwarding
   run at a Call/TailCall switch point: it starts after the Rely write,
   as the caller's run does, and its return is one more switch point,
   checked against the tail-caller's empty footprint and its memory
   after the Rely write. [Simulation.check_sides] over shared sides must
   give the same verdict record, counters and reason text included. *)
module Reference = struct
  open Simulation

  type 'core run_result =
    | Switch of Msg.t * Footprint.t * 'core * Memory.t * int
    | Run_abort
    | Run_nondet
    | Run_diverge

  let run_to_switch (type code core) ?audit (lang : (code, core) Lang.t) fl
      core mem ~bound : core run_result =
    let rec go core mem acc steps =
      if steps > bound then Run_diverge
      else begin
        (match audit with Some a -> Lang.audit_core a lang core | None -> ());
        match lang.Lang.step fl core mem with
        | [] -> Run_abort
        | [ Lang.Stuck_abort ] -> Run_abort
        | [ Lang.Next (Msg.Tau, fp, core', mem') ] ->
          go core' mem' (Footprint.union acc fp) (steps + 1)
        | [ Lang.Next (msg, fp, core', mem') ] ->
          Switch (msg, Footprint.union acc fp, core', mem', steps + 1)
        | _ :: _ :: _ -> Run_nondet
      end
    in
    go core mem Footprint.empty 0

  let check_verdict (type code1 core1 code2 core2)
      ~(src : (code1, core1) Lang.t * code1)
      ~(tgt : (code2, core2) Lang.t * code2) ~(entry : string)
      ~(args : Value.t list) ?(env = default_env) ?audit () : verdict =
    let src_lang, src_code = src in
    let tgt_lang, tgt_code = tgt in
    let steps_s_total = ref 0 and steps_t_total = ref 0 in
    let switches_seen = ref 0 in
    let outcome =
      let genv_of glb = Genv.link [ glb ] in
      match
        ( genv_of (src_lang.Lang.globals_of src_code),
          genv_of (tgt_lang.Lang.globals_of tgt_code) )
      with
      | Error n, _ | _, Error n ->
        Sim_inconclusive (Fmt.str "global linking failed on %s" n)
      | Ok genv_s, Ok genv_t -> (
        let mem_s0 = Genv.init_memory genv_s in
        let mem_t0 = Genv.init_memory genv_t in
        let nglobals = Genv.block_count genv_s in
        let fl = Flist.make ~offset:nglobals ~stride:1 in
        let shared = Memory.dom mem_s0 in
        let in_scope fp =
          Addr.Set.for_all
            (fun a -> Addr.Set.mem a shared || Flist.owns_addr fl a)
            (Footprint.locs fp)
        in
        let beta = beta_create () in
        Addr.Set.iter (fun a -> ignore (beta_match beta a a)) shared;
        let shared_related mem_s mem_t =
          Addr.Set.for_all
            (fun a ->
              match (Memory.peek mem_s a, Memory.peek mem_t a) with
              | Some v1, Some v2 -> values_match beta v1 v2
              | None, None -> true
              | _ -> false)
            shared
        in
        let fpmatch (delta : Footprint.t) (d : Footprint.t) =
          let s_rs = Addr.Set.inter (Footprint.rs_set d) shared in
          let s_ws = Addr.Set.inter (Footprint.ws_set d) shared in
          Addr.Set.subset s_rs
            (Addr.Set.union (Footprint.rs_set delta) (Footprint.ws_set delta))
          && Addr.Set.subset s_ws (Footprint.ws_set delta)
        in
        let obligations delta d mem_s mem_t =
          if not (in_scope delta) then
            Some
              (Fmt.str "source footprint out of scope: %a" Footprint.pp delta)
          else if not (in_scope d) then
            Some (Fmt.str "target footprint out of scope: %a" Footprint.pp d)
          else if not (fpmatch delta d) then
            Some
              (Fmt.str "FPmatch fails: source %a, target %a" Footprint.pp
                 delta Footprint.pp d)
          else if not (shared_related mem_s mem_t) then
            Some "shared memories unrelated at switch point"
          else None
        in
        let perturb_mem genv mem (g, ofs, v) ~perm =
          match Genv.find_block genv g with
          | None -> mem
          | Some b -> (
            match Memory.store ~perm mem (Addr.make b ofs) (Value.Vint v) with
            | Ok m -> m
            | Error _ -> mem)
        in
        let rely genv mem act =
          match act.perturb with
          | None -> mem
          | Some p -> perturb_mem genv mem p ~perm:Perm.Normal
        in
        match
          ( src_lang.Lang.init_core ~genv:genv_s src_code ~entry ~args,
            tgt_lang.Lang.init_core ~genv:genv_t tgt_code ~entry ~args )
        with
        | None, None -> Sim_inconclusive "entry not defined in either module"
        | Some _, None ->
          Sim_fail { at_switch = 0; reason = "entry missing in target" }
        | None, Some _ ->
          Sim_fail { at_switch = 0; reason = "entry missing in source" }
        | Some c_s, Some c_t ->
          let rec loop c_s mem_s c_t mem_t switches =
            switches_seen := switches;
            if switches >= max_switches then
              Sim_ok
                {
                  switches;
                  steps_src = !steps_s_total;
                  steps_tgt = !steps_t_total;
                }
            else
              match
                run_to_switch ?audit src_lang fl c_s mem_s ~bound:tau_bound
              with
              | Run_diverge ->
                Sim_inconclusive "source diverges before next switch point"
              | Run_nondet ->
                Sim_fail
                  {
                    at_switch = switches;
                    reason = "source module nondeterministic";
                  }
              | Run_abort ->
                Sim_ok
                  {
                    switches;
                    steps_src = !steps_s_total;
                    steps_tgt = !steps_t_total;
                  }
              | Switch (msg_s, delta, c_s', mem_s', n_s) -> (
                steps_s_total := !steps_s_total + n_s;
                match
                  run_to_switch ?audit tgt_lang fl c_t mem_t ~bound:tau_bound
                with
                | Run_diverge ->
                  Sim_fail
                    {
                      at_switch = switches;
                      reason = "target diverges where source switches";
                    }
                | Run_nondet ->
                  Sim_fail
                    {
                      at_switch = switches;
                      reason =
                        "target language nondeterministic (det(tl) fails)";
                    }
                | Run_abort ->
                  Sim_fail
                    {
                      at_switch = switches;
                      reason = "target aborts, source does not";
                    }
                | Switch (msg_t, d, c_t', mem_t', n_t) ->
                  steps_t_total := !steps_t_total + n_t;
                  if not (msgs_match beta msg_s msg_t) then
                    Sim_fail
                      {
                        at_switch = switches;
                        reason =
                          Fmt.str "messages differ: source %a, target %a"
                            Msg.pp msg_s Msg.pp msg_t;
                      }
                  else
                    match obligations delta d mem_s' mem_t' with
                    | Some reason -> Sim_fail { at_switch = switches; reason }
                    | None ->
                      let continue_after c_s c_t mem_s mem_t =
                        loop c_s mem_s c_t mem_t (switches + 1)
                      in
                      let finished () =
                        switches_seen := switches + 1;
                        Sim_ok
                          {
                            switches = switches + 1;
                            steps_src = !steps_s_total;
                            steps_tgt = !steps_t_total;
                          }
                      in
                      (* the forwarded return is one more switch point,
                         against the tail-caller's empty footprint and its
                         memory after the Rely *)
                      let expect_ret (type code core)
                          (lang : (code, core) Lang.t) core mem (ret : Value.t)
                          ~side ~forwarded =
                        match lang.Lang.after_external core (Some ret) with
                        | None ->
                          Sim_fail
                            {
                              at_switch = switches;
                              reason = side ^ " cannot resume after call";
                            }
                        | Some core -> (
                          match
                            run_to_switch ?audit lang fl core mem
                              ~bound:tau_bound
                          with
                          | Switch (Msg.Ret v, fp, _, mem, _)
                            when values_match beta v ret
                                 || values_match beta ret v -> (
                            match forwarded fp mem with
                            | None -> finished ()
                            | Some reason ->
                              Sim_fail { at_switch = switches; reason })
                          | Switch (m, _, _, _, _) ->
                            Sim_fail
                              {
                                at_switch = switches;
                                reason =
                                  Fmt.str
                                    "%s should forward the tail-callee's \
                                     return but emitted %a"
                                    side Msg.pp m;
                              }
                          | _ ->
                            Sim_fail
                              {
                                at_switch = switches;
                                reason =
                                  side
                                  ^ " diverges/aborts instead of forwarding \
                                     the tail-callee's return";
                              })
                      in
                      (match (msg_s, msg_t) with
                      | Msg.Ret _, _ -> finished ()
                      | Msg.TailCall _, Msg.TailCall _ -> finished ()
                      | Msg.Call _, Msg.TailCall _ ->
                        let act = env switches in
                        expect_ret src_lang c_s' (rely genv_s mem_s' act)
                          act.ret ~side:"source" ~forwarded:(fun fp mem ->
                            obligations fp Footprint.empty mem
                              (rely genv_t mem_t' act))
                      | Msg.TailCall _, Msg.Call _ ->
                        let act = env switches in
                        expect_ret tgt_lang c_t' (rely genv_t mem_t' act)
                          act.ret ~side:"target" ~forwarded:(fun fp mem ->
                            obligations Footprint.empty fp
                              (rely genv_s mem_s' act) mem)
                      | Msg.Call _, Msg.Call _ -> (
                        let act = env switches in
                        let mem_s = rely genv_s mem_s' act
                        and mem_t = rely genv_t mem_t' act in
                        match
                          ( src_lang.Lang.after_external c_s' (Some act.ret),
                            tgt_lang.Lang.after_external c_t' (Some act.ret) )
                        with
                        | Some c_s, Some c_t ->
                          continue_after c_s c_t mem_s mem_t
                        | _ ->
                          Sim_fail
                            {
                              at_switch = switches;
                              reason = "resume after external failed";
                            })
                      | _ -> continue_after c_s' c_t' mem_s' mem_t'))
          in
          loop c_s mem_s0 c_t mem_t0 0)
    in
    {
      v_outcome = outcome;
      v_switches = !switches_seen;
      v_steps_src = !steps_s_total;
      v_steps_tgt = !steps_t_total;
    }
end

let pp_verdict ppf (v : Simulation.verdict) =
  Fmt.pf ppf "%a [switches %d, steps %d/%d]" Simulation.pp_outcome
    v.Simulation.v_outcome v.v_switches v.v_steps_src v.v_steps_tgt

let verdict_eq what (expected : Simulation.verdict) (got : Simulation.verdict)
    =
  if expected <> got then
    Alcotest.failf "%s: reference %a, shared runs %a" what pp_verdict expected
      pp_verdict got

let args_for (p : Clight.program) entry =
  match List.find_opt (fun f -> f.Clight.fname = entry) p.Clight.funcs with
  | Some f ->
    List.init (List.length f.Clight.fparams) (fun i -> Value.Vint (7 + i))
  | None -> []

(* Every verdict of [check_passes ~cache:false] equals the reference's
   on the same pair of stages. *)
let check_passes_against_reference ?env name (p : Clight.program) =
  let c = Cas_compiler.Driver.compile_unit ~cache:false p in
  let stages = Array.of_list c.Cas_compiler.Driver.c_trace in
  let last = Array.length stages - 1 in
  let index pass =
    if pass = "Compiler" then (0, last)
    else
      let rec find k =
        if fst stages.(k) = pass then (k - 1, k) else find (k + 1)
      in
      find 1
  in
  List.iter
    (fun (r : Framework.pass_sim_report) ->
      let i, j = index r.pass in
      let (Lang.Mod (sl, sc)) = snd stages.(i) in
      let (Lang.Mod (tl, tc)) = snd stages.(j) in
      verdict_eq
        (Fmt.str "%s %s/%s" name r.pass r.entry)
        (Reference.check_verdict ~src:(sl, sc) ~tgt:(tl, tc) ~entry:r.entry
           ~args:(args_for p r.entry) ?env ())
        r.verdict)
    (Framework.check_passes ?env ~cache:false p)

let corpus_modules () =
  List.map (fun (name, p, _) -> (name, p)) (Corpus.sequential_clients ())
  @ [
      ("racy_counter", Corpus.racy_counter ());
      ("racy_writer", Corpus.racy_writer ());
      ("racy_reader", Corpus.racy_reader ());
    ]
  @ List.map
      (fun (name, src) -> (name, Parse.clight src))
      Corpus.link_module_srcs

let test_reference_corpus () =
  List.iter
    (fun (name, p) -> check_passes_against_reference name p)
    (corpus_modules ())

(* Generated programs of every shape the fuzzer draws: sizes 4, 8 and 15,
   one to three threads, with and without the lock; four of each. *)
let test_reference_generated () =
  let rng = Rng.make ~seed:19 in
  List.iter
    (fun size ->
      List.iter
        (fun (threads, lock) ->
          for i = 1 to 4 do
            let rec draw () =
              let g = Cas_fuzz.Gen.clight (Rng.split rng) ~size in
              if List.length g.g_entries = threads && g.g_with_lock = lock
              then g
              else draw ()
            in
            let g = draw () in
            check_passes_against_reference
              (Fmt.str "size %d, %d thread(s), lock %b, #%d" size threads lock
                 i)
              (Parse.clight g.g_source)
          done)
        [ (1, false); (2, false); (3, false); (1, true); (2, true); (3, true) ])
    [ 4; 8; 15 ]

(* The failure branches, which no pass of the pipeline reaches: the
   pairs of the unit tests above; each stage of a corpus program against
   the next stage of its [inject_print] variant, whose first print is
   off by one; and counter.c under an environment that writes x at every
   call, whose [inc] tail-calls print at Tailcall and at Compiler. *)
let test_reference_failures () =
  List.iter
    (fun (name, pair) ->
      let (Pair p) = pair () in
      verdict_eq name
        (Reference.check_verdict ~src:p.src ~tgt:p.tgt ~entry:p.entry
           ~args:[] ?env:p.env ())
        (Simulation.check_verdict ~src:p.src ~tgt:p.tgt ~entry:p.entry
           ~args:[] ?env:p.env ()))
    unit_pairs;
  List.iter
    (fun (name, p) ->
      let stages q =
        Array.of_list
          (Cas_compiler.Driver.compile_unit ~cache:false q)
            .Cas_compiler.Driver.c_trace
      in
      let good = stages p and bad = stages (Cas_fuzz.Driver.inject_print p) in
      for k = 0 to Array.length good - 2 do
        let (Lang.Mod (sl, sc)) = snd good.(k) in
        let (Lang.Mod (tl, tc)) = snd bad.(k + 1) in
        List.iter
          (fun (f : Clight.func) ->
            let entry = f.Clight.fname and args = args_for p f.Clight.fname in
            verdict_eq
              (Fmt.str "%s stage %d vs injected stage %d, %s" name k (k + 1)
                 entry)
              (Reference.check_verdict ~src:(sl, sc) ~tgt:(tl, tc) ~entry ~args
                 ())
              (Simulation.check_verdict ~src:(sl, sc) ~tgt:(tl, tc) ~entry
                 ~args ()))
          p.Clight.funcs
      done)
    (corpus_modules ());
  check_passes_against_reference
    ~env:(fun i ->
      { Simulation.ret = Value.Vint (3 + i); perturb = Some ("x", 0, 40 + i) })
    "counter.c, perturbing environment" (Corpus.counter ())

(* Each distinct run of an entry along the pipeline is built once: pairs
   run in stage order, a pass that leaves the body unchanged reuses the
   previous stage's side, and the [Compiler] pair reuses the first and
   the last. Every side asks the environment once per call, here g's and
   print's, so the count pins how many sides were built; a side per pair
   would ask 68 times. *)
let test_one_side_per_run () =
  let p =
    Parse.clight {| int f() { int r; r = g(1); print(r); return r; } |}
  in
  let asked = ref 0 in
  let env i =
    incr asked;
    Simulation.default_env i
  in
  ignore (Framework.check_passes ~env p);
  let digests =
    List.map
      (fun (_, m) -> Lang.digest_fundef m "f")
      (Cas_compiler.Driver.compile_unit ~cache:false p)
        .Cas_compiler.Driver.c_trace
  in
  let rec runs = function
    | a :: (b :: _ as rest) -> (if a = b then 0 else 1) + runs rest
    | _ -> 1
  in
  Alcotest.(check int) "environment asked twice per run" (2 * runs digests)
    !asked

(* ------------------------------------------------------------------ *)
(* The certify renderer                                                *)
(* ------------------------------------------------------------------ *)

(* The Format renderer that the buffer renderer replaced, kept as the
   reference: every row through [Fmt.pf], each ended by [@.]. *)
module Format_renderer = struct
  let pp_outcome ppf = function
    | Simulation.Sim_ok r ->
      Fmt.pf ppf "ok (%d switch points, %d src / %d tgt steps)" r.switches
        r.steps_src r.steps_tgt
    | Simulation.Sim_fail f ->
      Fmt.pf ppf "FAIL at switch %d: %s" f.at_switch f.reason
    | Simulation.Sim_inconclusive s -> Fmt.pf ppf "inconclusive: %s" s

  let pp_pass_sim ppf (r : Framework.pass_sim_report) =
    Fmt.pf ppf "%-14s %-12s %a%s" r.pass r.entry pp_outcome
      r.verdict.v_outcome
      (if r.cached then " (cached)" else "")

  let pp_certify ~indent ppf (reports : Framework.pass_sim_report list) =
    List.iter (Fmt.pf ppf "%s%a@." indent pp_pass_sim) reports
end

let report ?(cached = false) pass entry outcome : Framework.pass_sim_report =
  {
    pass;
    entry;
    verdict =
      { v_outcome = outcome; v_switches = 0; v_steps_src = 0; v_steps_tgt = 0 };
    cached;
    checker_steps = 0;
  }

(* Certify reports of every kind of row: the corpus checked afresh and
   again from the cache, a spinning loop (every row inconclusive), the
   failing pairs above and each corpus stage against the next stage of
   its [inject_print] variant (FAIL rows), and rows whose names overflow
   their columns or whose reasons hold newlines and non-ASCII bytes. *)
let rendered_reports () : Framework.pass_sim_report list list =
  Cas_compiler.Cache.clear_memory ();
  let modules =
    corpus_modules ()
    @ [
        ( "spin",
          Parse.clight
            "void main() { int i; i = 0; while (1) { i = i + 1; } }" );
        ( "long names",
          Parse.clight
            "int a_function_named_past_its_column(int x) { return x; }\n\
             void main() { int r; r = a_function_named_past_its_column(4); \
             print(r); }" );
      ]
  in
  let checked = List.map (fun (_, p) -> Framework.check_passes p) modules in
  let cached = List.map (fun (_, p) -> Framework.check_passes p) modules in
  let unit_failures =
    List.map
      (fun (name, pair) ->
        let (Pair p) = pair () in
        report name p.entry
          (Simulation.check ~src:p.src ~tgt:p.tgt ~entry:p.entry ~args:[]
             ?env:p.env ()))
      unit_pairs
  in
  let injected =
    List.map
      (fun (_, p) ->
        let stages q =
          Array.of_list
            (Cas_compiler.Driver.compile_unit ~cache:false q)
              .Cas_compiler.Driver.c_trace
        in
        let good = stages p and bad = stages (Cas_fuzz.Driver.inject_print p) in
        List.concat_map
          (fun k ->
            let (Lang.Mod (sl, sc)) = snd good.(k) in
            let (Lang.Mod (tl, tc)) = snd bad.(k + 1) in
            List.map
              (fun (f : Clight.func) ->
                report ~cached:(k mod 2 = 0)
                  (fst bad.(k + 1))
                  f.Clight.fname
                  (Simulation.check ~src:(sl, sc) ~tgt:(tl, tc)
                     ~entry:f.Clight.fname ~args:(args_for p f.Clight.fname)
                     ()))
              p.Clight.funcs)
          (List.init (Array.length good - 1) Fun.id))
      (corpus_modules ())
  in
  let odd =
    [
      report "" "" (Simulation.Sim_inconclusive "");
      report "ASuperLongPassNameBeyondFourteen" "an_entry_beyond_twelve"
        (Simulation.Sim_fail { at_switch = 12; reason = String.make 200 'r' });
      report ~cached:true "Compiler" "main"
        (Simulation.Sim_fail { at_switch = 3; reason = "two\nlines, é, \t" });
      report "Exactly14Chars" "exactly12chr"
        (Simulation.Sim_inconclusive "@[<v>not a box@] @. %d");
    ]
  in
  checked @ cached @ [ unit_failures; odd ] @ injected

let test_renderer_matches_reference () =
  let rows = ref 0 and fails = ref 0 and inconclusive = ref 0 in
  let cached = ref 0 in
  List.iter
    (fun (reports : Framework.pass_sim_report list) ->
      let c =
        {
          Cas_cmd.reports;
          sim_ok = true;
          cached = 0;
          steps = 0;
        }
      in
      List.iter
        (fun indent ->
          let reference =
            Fmt.str "%a" (Format_renderer.pp_certify ~indent) reports
          in
          check Alcotest.string "certify text" reference
            (Cas_cmd.certify_text ~indent c);
          check Alcotest.string "pp_certify" reference
            (Fmt.str "%a" (Cas_cmd.pp_certify ~indent) c))
        [ ""; "  " ];
      List.iter
        (fun (r : Framework.pass_sim_report) ->
          incr rows;
          if r.cached then incr cached;
          (match r.verdict.v_outcome with
          | Simulation.Sim_fail _ -> incr fails
          | Simulation.Sim_inconclusive _ -> incr inconclusive
          | Simulation.Sim_ok _ -> ());
          let o = r.verdict.v_outcome in
          check Alcotest.string "outcome text"
            (Fmt.str "%a" Format_renderer.pp_outcome o)
            (Simulation.outcome_text o);
          check Alcotest.string "pp_outcome"
            (Fmt.str "%a" Format_renderer.pp_outcome o)
            (Fmt.str "%a" Simulation.pp_outcome o))
        reports)
    (rendered_reports ());
  check tbool "FAIL rows rendered" true (!fails > 100);
  check tbool "inconclusive rows rendered" true (!inconclusive >= 17);
  check tbool "cached rows rendered" true (!cached > 100);
  check tbool "ok rows rendered" true (!rows > !fails + !inconclusive + 100)

let prop_reference_random =
  QCheck.Test.make ~name:"shared runs match the lockstep checker" ~count:100
    Randprog.arb_program (fun p ->
      check_passes_against_reference "random program" p;
      true)

(* Pinned generator seed for the random-program property; override with
   QCHECK_SEED=n to explore a different slice of the input space. *)
let qcheck_seed =
  match Sys.getenv_opt "QCHECK_SEED" with
  | Some s -> (try int_of_string s with _ -> 0x5ca1ab1e)
  | None -> 0x5ca1ab1e

let () =
  Alcotest.run "simulation"
    [
      ( "accepts",
        [
          Alcotest.test_case "identity" `Quick test_identity_sim;
          Alcotest.test_case "full pipeline on corpus" `Slow
            test_full_pipeline_sim;
          Alcotest.test_case "robust to Rely writes" `Quick
            test_sim_with_rely_perturbation;
          Alcotest.test_case "write-to-read weakening" `Quick
            test_allows_write_to_read_weakening;
        ] );
      ( "rejects",
        [
          Alcotest.test_case "wrong event" `Quick
            (rejects "wrong print" wrong_event);
          Alcotest.test_case "extra shared write" `Quick
            (rejects "extra shared write" extra_shared_write);
          Alcotest.test_case "extra shared read" `Quick
            (rejects "extra shared read" extra_shared_read);
          Alcotest.test_case "caching across switch points (§2.2)" `Quick
            (rejects "caching across call" caching_across_switch_points);
          Alcotest.test_case "wrong return" `Quick
            (rejects "wrong return value" wrong_return);
          Alcotest.test_case "target abort" `Quick
            (rejects "target abort" target_abort);
          Alcotest.test_case "event reorder" `Quick
            (rejects "event reordering" event_reorder);
          Alcotest.test_case "tail call drops work" `Quick
            (rejects "unforwarded return" tailcall_drops_work);
          Alcotest.test_case "unforwarded Rely read" `Quick
            (rejects "unforwarded Rely read" unforwarded_rely_read);
          Alcotest.test_case "write before a forwarded return" `Quick
            (rejects "forwarded write" write_before_forwarded_return);
          Alcotest.test_case "forwarded return writes, swapped" `Quick
            (rejects "forwarded write, swapped" forwarded_write_swapped);
          Alcotest.test_case "broken pass" `Quick
            (rejects "folding a global load" broken_constprop);
        ] );
      ( "machinery",
        [
          Alcotest.test_case "det on run" `Quick test_det_on_run;
          Alcotest.test_case "beta injective" `Quick test_beta_injective;
        ] );
      ( "shared runs",
        [
          Alcotest.test_case "match the reference on the corpus" `Quick
            test_reference_corpus;
          Alcotest.test_case "match the reference on generated programs"
            `Quick test_reference_generated;
          Alcotest.test_case "match the reference on failing pairs" `Quick
            test_reference_failures;
          Alcotest.test_case "one side per distinct run" `Quick
            test_one_side_per_run;
          QCheck_alcotest.to_alcotest
            ~rand:(Random.State.make [| qcheck_seed |])
            prop_reference_random;
        ] );
      ( "renderer",
        [
          Alcotest.test_case "certify text matches the Format reference"
            `Quick test_renderer_matches_reference;
        ] );
      ( "reach-close (Def. 4)",
        [
          Alcotest.test_case "corpus clients" `Quick test_reach_close_corpus;
          Alcotest.test_case "lock object" `Quick test_reach_close_object;
          Alcotest.test_case "escape caught" `Quick
            test_reach_close_catches_escape;
        ] );
    ]
