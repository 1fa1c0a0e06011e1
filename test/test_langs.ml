(** Tests for the language instantiations: CImp, mini-Clight, the IRs and
    x86 — semantics unit tests, determinism, the operator algebra, the
    parsers, and the executable Def. 1 well-definedness checks that the
    paper discharges in Coq for each concrete language ("We have proved in
    Coq that some real languages satisfy wd, including Clight, Cminor, and
    x86 assembly"). *)

open Cas_base
open Cas_langs

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int

(* ------------------------------------------------------------------ *)
(* Harness: run one module as a single thread                          *)
(* ------------------------------------------------------------------ *)

type outcome = {
  events : Event.t list;
  ret : Value.t option;
  aborted : bool;
  steps : int;
}

(** Deterministically run [entry] of a single module, following the first
    successor at every step (all our languages are deterministic), with
    built-in [print]. *)
let run_module (type code core) (lang : (code, core) Lang.t) (code : code)
    ~entry ?(args = []) ?(max_steps = 100_000) () : outcome =
  match Genv.link [ lang.Lang.globals_of code ] with
  | Error _ -> { events = []; ret = None; aborted = true; steps = 0 }
  | Ok genv -> (
    let mem = Genv.init_memory genv in
    let fl = Flist.make ~offset:(Genv.block_count genv) ~stride:1 in
    match lang.Lang.init_core ~genv code ~entry ~args with
    | None -> { events = []; ret = None; aborted = true; steps = 0 }
    | Some core ->
      let events = ref [] in
      let finish ?ret ?(aborted = false) steps =
        { events = List.rev !events; ret; aborted; steps }
      in
      (* stack of frames; head is running *)
      let rec go stack mem steps =
        if steps > max_steps then finish steps
        else
          match stack with
          | [] -> finish steps
          | core :: callers -> (
            match lang.Lang.step fl core mem with
            | [] | Lang.Stuck_abort :: _ -> finish ~aborted:true steps
            | Lang.Next (msg, _, core', mem') :: _ -> (
              match msg with
              | Msg.Ret v -> (
                match callers with
                | [] -> finish ~ret:v steps
                | caller :: rest -> (
                  match lang.Lang.after_external caller (Some v) with
                  | Some caller' -> go (caller' :: rest) mem' (steps + 1)
                  | None -> finish ~aborted:true steps))
              | Msg.Evt e ->
                events := e :: !events;
                go (core' :: callers) mem' (steps + 1)
              | Msg.Call ("print", [ Value.Vint n ]) -> (
                events := Event.Print n :: !events;
                match lang.Lang.after_external core' None with
                | Some core'' -> go (core'' :: callers) mem' (steps + 1)
                | None -> finish ~aborted:true steps)
              | Msg.TailCall ("print", [ Value.Vint n ]) -> (
                events := Event.Print n :: !events;
                match callers with
                | [] -> finish ~ret:(Value.Vint 0) steps
                | caller :: rest -> (
                  match lang.Lang.after_external caller (Some (Value.Vint 0)) with
                  | Some caller' -> go (caller' :: rest) mem' (steps + 1)
                  | None -> finish ~aborted:true steps))
              | Msg.Call (f, args) -> (
                match lang.Lang.init_core ~genv code ~entry:f ~args with
                | Some callee -> go (callee :: core' :: callers) mem' (steps + 1)
                | None -> finish ~aborted:true steps)
              | Msg.TailCall (f, args) -> (
                match lang.Lang.init_core ~genv code ~entry:f ~args with
                | Some callee -> go (callee :: callers) mem' (steps + 1)
                | None -> finish ~aborted:true steps)
              | Msg.Tau | Msg.EntAtom | Msg.ExtAtom ->
                go (core' :: callers) mem' (steps + 1)))
      in
      go [ core ] mem 0)

let ret_int o =
  match o.ret with Some (Value.Vint n) -> Some n | _ -> None

(* ------------------------------------------------------------------ *)
(* Ops                                                                 *)
(* ------------------------------------------------------------------ *)

let test_ops_arith () =
  let i n = Value.Vint n in
  check tbool "add" true (Value.equal (Ops.eval_binop Ops.Oadd (i 2) (i 3)) (i 5));
  check tbool "div by zero undef" true
    (Value.equal (Ops.eval_binop Ops.Odiv (i 1) (i 0)) Value.Vundef);
  check tbool "cmp" true (Value.equal (Ops.eval_binop Ops.Olt (i 1) (i 2)) (i 1));
  check tbool "undef propagates" true
    (Value.equal (Ops.eval_binop Ops.Oadd Value.Vundef (i 1)) Value.Vundef)

let test_ops_pointers () =
  let p = Value.Vptr (Addr.make 3 1) in
  (match Ops.eval_binop Ops.Oadd p (Value.Vint 2) with
  | Value.Vptr a -> check tint "ptr+int" 3 a.Addr.ofs
  | _ -> Alcotest.fail "pointer arithmetic broken");
  check tbool "ptr eq" true
    (Value.equal (Ops.eval_binop Ops.Oeq p p) (Value.Vint 1));
  check tbool "ptr - ptr same block" true
    (Value.equal
       (Ops.eval_binop Ops.Osub (Value.Vptr (Addr.make 3 4)) p)
       (Value.Vint 3));
  check tbool "ptr * int undef" true
    (Value.equal (Ops.eval_binop Ops.Omul p (Value.Vint 2)) Value.Vundef)

let prop_ops_total =
  let gen_v =
    QCheck.Gen.(
      oneof
        [
          return Value.Vundef;
          map (fun n -> Value.Vint n) small_signed_int;
          map2 (fun b o -> Value.Vptr (Addr.make b o)) (int_bound 3) (int_bound 3);
        ])
  in
  let ops =
    Ops.
      [ Oadd; Osub; Omul; Odiv; Omod; Oand; Oor; Oxor; Oshl; Oshr; Oeq; One;
        Olt; Ole; Ogt; Oge ]
  in
  QCheck.Test.make ~name:"operator evaluation is total" ~count:1000
    (QCheck.make QCheck.Gen.(triple (oneofl ops) gen_v gen_v))
    (fun (op, a, b) ->
      match Ops.eval_binop op a b with
      | Value.Vundef | Value.Vint _ | Value.Vptr _ -> true)

let prop_const_binop_agrees =
  let ops = Ops.[ Oadd; Osub; Omul; Oand; Oor; Oxor; Oeq; One; Olt; Ole ] in
  QCheck.Test.make ~name:"const_binop agrees with eval_binop" ~count:1000
    (QCheck.make QCheck.Gen.(triple (oneofl ops) small_signed_int small_signed_int))
    (fun (op, x, y) ->
      match Ops.const_binop op x y with
      | Some n ->
        Value.equal (Ops.eval_binop op (Value.Vint x) (Value.Vint y)) (Value.Vint n)
      | None -> false)

(* ------------------------------------------------------------------ *)
(* CImp                                                                *)
(* ------------------------------------------------------------------ *)

let cimp_prog body : Cimp.program =
  {
    Cimp.globals = [ Genv.gvar ~perm:Perm.Object ~init:[ Genv.Iint 1 ] "L" 1 ];
    funcs = [ { Cimp.fname = "f"; fparams = []; fbody = body } ];
  }

let test_cimp_load_store () =
  let open Cimp in
  let p =
    cimp_prog
      (Sseq
         ( Sload ("r", Eglob "L"),
           Sseq
             ( Sstore (Eglob "L", Ebinop (Ops.Oadd, Evar "r", Eint 10)),
               Sseq (Sload ("s", Eglob "L"), Sreturn (Some (Evar "s"))) ) ))
  in
  check (Alcotest.option tint) "L := L+10" (Some 11)
    (ret_int (run_module Cimp.lang p ~entry:"f" ()))

let test_cimp_assert_abort () =
  let open Cimp in
  let p = cimp_prog (Sassert (Eint 0)) in
  check tbool "assert false aborts" true
    (run_module Cimp.lang p ~entry:"f" ()).aborted

let test_cimp_atomic_msgs () =
  let open Cimp in
  let p = cimp_prog (Satomic (Sassign ("r", Eint 1))) in
  match Genv.link [ p.globals ] with
  | Error _ -> Alcotest.fail "link"
  | Ok genv -> (
    let mem = Genv.init_memory genv in
    let fl = Flist.make ~offset:1 ~stride:1 in
    match Cimp.init_core ~genv p ~entry:"f" ~args:[] with
    | None -> Alcotest.fail "init"
    | Some c -> (
      match Cimp.step fl c mem with
      | [ Lang.Next (Msg.EntAtom, fp, c1, _) ] -> (
        check tbool "EntAtom footprint empty" true (Footprint.is_empty fp);
        let rec to_ext c n =
          if n > 10 then Alcotest.fail "no ExtAtom"
          else
            match Cimp.step fl c mem with
            | [ Lang.Next (Msg.ExtAtom, _, c', _) ] -> c'
            | [ Lang.Next (_, _, c', _) ] -> to_ext c' (n + 1)
            | _ -> Alcotest.fail "unexpected step in atomic block"
        in
        let c' = to_ext c1 0 in
        match Cimp.step fl c' mem with
        | [ Lang.Next (Msg.Ret _, _, _, _) ] -> ()
        | _ -> Alcotest.fail "expected return after atomic block")
      | _ -> Alcotest.fail "expected EntAtom"))

let test_cimp_return_inside_atomic_aborts () =
  let open Cimp in
  let p = cimp_prog (Satomic (Sreturn None)) in
  check tbool "return inside atomic aborts" true
    (run_module Cimp.lang p ~entry:"f" ()).aborted

let test_cimp_perm_confinement () =
  let open Cimp in
  let p =
    {
      Cimp.globals = [ Genv.gvar ~init:[ Genv.Iint 0 ] "n" 1 ];
      funcs =
        [ { Cimp.fname = "f"; fparams = []; fbody = Sload ("r", Eglob "n") } ];
    }
  in
  check tbool "CImp load of client data aborts" true
    (run_module Cimp.lang p ~entry:"f" ()).aborted

(* ------------------------------------------------------------------ *)
(* Clight                                                              *)
(* ------------------------------------------------------------------ *)

let tevents = Alcotest.list (Alcotest.testable Event.pp Event.equal)

let test_clight_locals_and_addrof () =
  let o = run_module Clight.lang (Corpus.array_sum ()) ~entry:"main" () in
  check tevents "array sum prints 30" [ Event.Print 30 ] o.events

let test_clight_param_passing () =
  let p = Parse.clight {| int add3(int a, int b, int c) { return a + b + c; } |} in
  let o =
    run_module Clight.lang p ~entry:"add3"
      ~args:[ Value.Vint 1; Value.Vint 2; Value.Vint 3 ]
      ()
  in
  check (Alcotest.option tint) "1+2+3" (Some 6) (ret_int o)

let test_clight_deref_fault_aborts () =
  let p =
    {
      Clight.globals = [];
      funcs =
        [
          {
            Clight.fname = "f";
            fparams = [];
            fvars = [];
            fbody = Clight.Sset ("x", Clight.Ederef (Clight.Econst 0));
          };
        ];
    }
  in
  check tbool "null deref aborts" true
    (run_module Clight.lang p ~entry:"f" ()).aborted

let test_clight_if_while () =
  let p =
    Parse.clight
      {|
      int collatz(int n) {
        int steps;
        steps = 0;
        while (n != 1) {
          if (n % 2 == 0) { n = n / 2; } else { n = 3 * n + 1; }
          steps = steps + 1;
        }
        return steps;
      }
    |}
  in
  check (Alcotest.option tint) "collatz 6" (Some 8)
    (ret_int (run_module Clight.lang p ~entry:"collatz" ~args:[ Value.Vint 6 ] ()))

let test_clight_alloc_footprint_in_flist () =
  let p = Corpus.array_sum () in
  match Genv.link [ Clight.lang.Lang.globals_of p ] with
  | Error _ -> Alcotest.fail "link"
  | Ok genv -> (
    let mem = Genv.init_memory genv in
    let fl = Flist.make ~offset:(Genv.block_count genv) ~stride:3 in
    match Clight.init_core ~genv p ~entry:"main" ~args:[] with
    | None -> Alcotest.fail "init"
    | Some c -> (
      match Clight.step fl c mem with
      | [ Lang.Next (Msg.Tau, fp, _, mem') ] ->
        check tbool "allocation footprint inside freelist" true
          (Addr.Set.for_all (Flist.owns_addr fl) (Footprint.ws_set fp));
        check tbool "memory grew" true
          (List.length (Memory.dom_blocks mem')
          > List.length (Memory.dom_blocks mem))
      | _ -> Alcotest.fail "expected allocation step"))

(* ------------------------------------------------------------------ *)
(* Compiled pipeline end-to-end per language                           *)
(* ------------------------------------------------------------------ *)

let test_pipeline_stage_agreement () =
  List.iter
    (fun (name, client, entries) ->
      let a = Cas_compiler.Driver.compile_artifacts client in
      List.iter
        (fun entry ->
          let arity =
            match
              List.find_opt (fun f -> f.Clight.fname = entry) client.Clight.funcs
            with
            | Some f -> List.length f.Clight.fparams
            | None -> 0
          in
          if arity = 0 then begin
            let reference = run_module Clight.lang client ~entry () in
            let open Cas_compiler.Driver in
            let stages =
              [
                ("clight_simpl", (fun () -> run_module Clight.lang a.clight_simpl ~entry ()));
                ("csharpminor", (fun () -> run_module Csharpminor.lang a.csharpminor ~entry ()));
                ("cminor", (fun () -> run_module Cminor.lang a.cminor ~entry ()));
                ("cminorsel", (fun () -> run_module Cminor.sel_lang a.cminorsel ~entry ()));
                ("rtl", (fun () -> run_module Rtl.lang a.rtl ~entry ()));
                ("rtl_opt", (fun () -> run_module Rtl.lang a.rtl_cse ~entry ()));
                ("ltl", (fun () -> run_module Ltl.lang a.ltl_tunneled ~entry ()));
                ("linear", (fun () -> run_module Linearl.lang a.linear_clean ~entry ()));
                ("mach", (fun () -> run_module Machl.lang a.mach ~entry ()));
                ("asm", (fun () -> run_module Asm.lang a.asm ~entry ()));
              ]
            in
            List.iter
              (fun (stage, run) ->
                let o = run () in
                check tbool
                  (Fmt.str "%s/%s %s: no abort" name entry stage)
                  false o.aborted;
                check tevents
                  (Fmt.str "%s/%s %s: events" name entry stage)
                  reference.events o.events)
              stages
          end)
        entries)
    (List.filter
       (fun (n, _, _) ->
         List.mem n
           [ "fib"; "array_sum"; "mutual_tailcall"; "const_cse"; "spill" ])
       (Corpus.sequential_clients ()))

(* ------------------------------------------------------------------ *)
(* Determinism of the languages — det(tl)                              *)
(* ------------------------------------------------------------------ *)

let test_determinism () =
  List.iter
    (fun (name, client, entries) ->
      let a = Cas_compiler.Driver.compile_artifacts client in
      List.iter
        (fun entry ->
          match Genv.link [ a.Cas_compiler.Driver.asm.Asm.globals ] with
          | Error _ -> ()
          | Ok genv -> (
            let mem = Genv.init_memory genv in
            let fl = Flist.make ~offset:(Genv.block_count genv) ~stride:1 in
            match
              Asm.init_core ~genv a.Cas_compiler.Driver.asm ~entry ~args:[]
            with
            | None -> ()
            | Some core ->
              check tbool (Fmt.str "%s/%s deterministic" name entry) true
                (Cascompcert.Simulation.det_on_run Asm.lang fl core mem
                   ~bound:5000)))
        entries)
    (List.filter
       (fun (n, _, _) -> List.mem n [ "fib"; "array_sum"; "const_cse" ])
       (Corpus.sequential_clients ()))

(* ------------------------------------------------------------------ *)
(* wd(tl): Def. 1 checks along executions                              *)
(* ------------------------------------------------------------------ *)

let wd_along_run (type code core) (lang : (code, core) Lang.t) (code : code)
    ~entry ?(max_steps = 300) () : Wd.violation list =
  match Genv.link [ lang.Lang.globals_of code ] with
  | Error _ -> []
  | Ok genv -> (
    let mem = Genv.init_memory genv in
    let fl = Flist.make ~offset:(Genv.block_count genv) ~stride:2 in
    match lang.Lang.init_core ~genv code ~entry ~args:[] with
    | None -> []
    | Some core ->
      let violations = ref [] in
      let rec go core mem steps =
        if steps > max_steps then ()
        else begin
          violations := Wd.check_all lang fl core mem @ !violations;
          match lang.Lang.step fl core mem with
          | Lang.Next (Msg.Ret _, _, _, _) :: _ -> ()
          | Lang.Next (Msg.Call _, _, core', mem') :: _ -> (
            match lang.Lang.after_external core' (Some (Value.Vint 0)) with
            | Some core'' -> go core'' mem' (steps + 1)
            | None -> ())
          | Lang.Next (_, _, core', mem') :: _ -> go core' mem' (steps + 1)
          | _ -> ()
        end
      in
      go core mem 0;
      !violations)

let test_wd_clight () =
  let vs = wd_along_run Clight.lang (Corpus.array_sum ()) ~entry:"main" () in
  check tint "Clight wd violations" 0 (List.length vs)

let test_wd_cimp () =
  let vs = wd_along_run Cimp.lang (Corpus.gamma_lock ()) ~entry:"unlock" () in
  check tint "CImp wd violations" 0 (List.length vs)

let test_wd_pipeline () =
  let client = Corpus.const_cse () in
  let a = Cas_compiler.Driver.compile_artifacts client in
  let open Cas_compiler.Driver in
  check tint "Cminor wd" 0
    (List.length (wd_along_run Cminor.lang a.cminor ~entry:"main" ()));
  check tint "RTL wd" 0
    (List.length (wd_along_run Rtl.lang a.rtl_cse ~entry:"main" ()));
  check tint "LTL wd" 0
    (List.length (wd_along_run Ltl.lang a.ltl_tunneled ~entry:"main" ()));
  check tint "Linear wd" 0
    (List.length (wd_along_run Linearl.lang a.linear_clean ~entry:"main" ()));
  check tint "Mach wd" 0
    (List.length (wd_along_run Machl.lang a.mach ~entry:"main" ()));
  check tint "x86 wd" 0
    (List.length (wd_along_run Asm.lang a.asm ~entry:"main" ()))

(* The Wd checker must itself catch ill-behaved languages: one whose
   step under-reports its write set (Def. 1 item 2), and one whose
   behaviour depends on memory it does not declare reading (item 3). *)

type evil_core = { epc : int; egenv : Genv.t }

let evil_lang ~(mode : [ `Hidden_write | `Hidden_read ]) :
    (unit, evil_core) Lang.t =
  let cell genv = Addr.make (Option.get (Genv.find_block genv "e")) 0 in
  {
    Lang.name = "Evil";
    init_core = (fun ~genv () ~entry ~args:_ ->
      if entry = "f" then Some { epc = 0; egenv = genv } else None);
    step =
      (fun _fl c m ->
        if c.epc > 0 then [ Lang.Next (Msg.Ret Value.Vundef, Footprint.empty, c, m) ]
        else
          let a = cell c.egenv in
          match mode with
          | `Hidden_write -> (
            (* writes the cell but reports an empty footprint *)
            match Memory.store m a (Value.Vint 42) with
            | Ok m' -> [ Lang.Next (Msg.Tau, Footprint.empty, { c with epc = 1 }, m') ]
            | Error _ -> [ Lang.Stuck_abort ])
          | `Hidden_read -> (
            (* branches on the cell but reports an empty read set *)
            match Memory.load m a with
            | Ok (Value.Vint n) when n > 100 ->
              [ Lang.Next (Msg.Evt (Event.Print 1), Footprint.empty, { c with epc = 1 }, m) ]
            | Ok _ ->
              [ Lang.Next (Msg.Tau, Footprint.empty, { c with epc = 1 }, m) ]
            | Error _ -> [ Lang.Stuck_abort ]));
    after_external = (fun _ _ -> None);
    hash_core = (fun st c -> Hashx.int st c.epc);
    hash_fundef = (fun _ () _ -> ());
    pp_core = (fun ppf c -> Fmt.pf ppf "evil@%d" c.epc);
    globals_of = (fun () -> [ Genv.gvar ~init:[ Genv.Iint 0 ] "e" 1 ]);
    defs_of = (fun () -> [ ("f", 0) ]);
  }

let run_wd_on_evil mode =
  let lang = evil_lang ~mode in
  match Genv.link [ lang.Lang.globals_of () ] with
  | Error _ -> Alcotest.fail "link"
  | Ok genv -> (
    let mem = Genv.init_memory genv in
    let fl = Flist.make ~offset:1 ~stride:1 in
    match lang.Lang.init_core ~genv () ~entry:"f" ~args:[] with
    | None -> Alcotest.fail "init"
    | Some core -> Wd.check_all lang fl core mem)

let test_wd_catches_hidden_write () =
  let vs = run_wd_on_evil `Hidden_write in
  check tbool "hidden write caught" true
    (List.exists (fun v -> v.Wd.item = 2) vs)

let test_wd_catches_hidden_read () =
  let vs = run_wd_on_evil `Hidden_read in
  check tbool "hidden read caught" true
    (List.exists (fun v -> v.Wd.item = 3 || v.Wd.item = 4) vs)

(* ------------------------------------------------------------------ *)
(* Parsers                                                             *)
(* ------------------------------------------------------------------ *)

let test_parse_precedence () =
  let p = Parse.clight {| int f() { return 1 + 2 * 3; } |} in
  check (Alcotest.option tint) "precedence" (Some 7)
    (ret_int (run_module Clight.lang p ~entry:"f" ()));
  let p = Parse.clight {| int f() { return (1 + 2) * 3; } |} in
  check (Alcotest.option tint) "parens" (Some 9)
    (ret_int (run_module Clight.lang p ~entry:"f" ()))

let test_parse_unary_and_comparison () =
  let p = Parse.clight {| int f() { return 0 - 3 + 5 >= 2; } |} in
  check (Alcotest.option tint) "minus and cmp" (Some 1)
    (ret_int (run_module Clight.lang p ~entry:"f" ()))

let test_parse_comments () =
  let p =
    Parse.clight
      {| // leading comment
         int f() { /* inline */ return 4; } |}
  in
  check (Alcotest.option tint) "comments ignored" (Some 4)
    (ret_int (run_module Clight.lang p ~entry:"f" ()))

let test_parse_errors () =
  let bad = [ "int f() { return + ; }"; "int f( { }"; "void f() { x = ; }" ] in
  List.iter
    (fun src ->
      match Parse.clight src with
      | exception Lexer.Error _ -> ()
      | _ -> Alcotest.failf "expected syntax error on %S" src)
    bad

let test_parse_cimp_roundtrip () =
  let g = Corpus.gamma_lock () in
  check tint "two functions" 2 (List.length g.Cimp.funcs);
  check tint "one object global" 1 (List.length g.Cimp.globals);
  let builtin = Cimp.gamma_lock () in
  let o1 = run_module Cimp.lang g ~entry:"unlock" () in
  let o2 = run_module Cimp.lang builtin ~entry:"unlock" () in
  check tbool "parsed unlock aborts like builtin" o2.aborted o1.aborted

(* Out-of-range integer literals are parse errors at the literal, in
   both languages (they share the lexer). *)
let test_parse_int_range () =
  let error parse src =
    match parse src with
    | exception Lexer.Error (msg, p) -> Some (msg, p.Lexer.pline, p.Lexer.pcol)
    | _ -> None
  in
  let out_of_range line col =
    Some ("integer literal out of range", line, col)
  in
  check tbool "Clight global initializer" true
    (error Parse.clight
       "int x = 99999999999999999999; void main() { print(x); }"
    = out_of_range 1 9);
  check tbool "Clight expression" true
    (error Parse.clight "void main() {\n  print(4611686018427387904);\n}"
    = out_of_range 2 9);
  check tbool "CImp expression" true
    (error Parse.cimp "void f() {\n  r := 1 + 99999999999999999999;\n}"
    = out_of_range 2 12);
  check tbool "CImp object initializer" true
    (error Parse.cimp "object int x = 4611686018427387904;"
    = out_of_range 1 16);
  check tbool "max_int still lexes" true
    (error Parse.clight "int x = 4611686018427387903;" = None);
  check tbool "leading zeros still lex" true
    (error Parse.clight "int x = 000000000000000000000000007;" = None)

(* The list-scan lexer the character dispatch replaced, kept as the
   reference: punctuation by [List.find_opt] over the candidates, each
   tried with [String.sub]; keywords by [List.mem]; literals through
   [int_of_string], whose failure on a literal past [max_int] maps to
   the error the lexer now raises at the literal. Both skip whitespace
   and comments with [Lexer.skip_ws]. *)
module Reference = struct
  let keywords =
    [ "int"; "void"; "if"; "else"; "while"; "return"; "object"; "atomic";
      "assert"; "reg" ]

  let puncts =
    [ ":="; "=="; "!="; "<="; ">="; "&&"; "||"; "<<"; ">>";
      "("; ")"; "{"; "}"; "["; "]"; ";"; ","; "="; "+"; "-"; "*"; "/"; "%";
      "<"; ">"; "!"; "&"; "|"; "^"; "~" ]

  let binops =
    [ ("||", Ops.Oor, 1); ("&&", Ops.Oand, 2); ("|", Ops.Oor, 3);
      ("^", Ops.Oxor, 4); ("&", Ops.Oand, 5); ("==", Ops.Oeq, 6);
      ("!=", Ops.One, 6); ("<", Ops.Olt, 7); ("<=", Ops.Ole, 7);
      (">", Ops.Ogt, 7); (">=", Ops.Oge, 7); ("<<", Ops.Oshl, 8);
      (">>", Ops.Oshr, 8); ("+", Ops.Oadd, 9); ("-", Ops.Osub, 9);
      ("*", Ops.Omul, 10); ("/", Ops.Odiv, 10); ("%", Ops.Omod, 10) ]

  let lex_one (lx : Lexer.t) : Lexer.token * Lexer.pos =
    let open Lexer in
    skip_ws lx;
    let p = pos_of lx in
    if lx.off >= String.length lx.src then (EOF, p)
    else
      let c = lx.src.[lx.off] in
      if is_digit c then begin
        let start = lx.off in
        while lx.off < String.length lx.src && is_digit lx.src.[lx.off] do
          lx.off <- lx.off + 1
        done;
        match int_of_string (String.sub lx.src start (lx.off - start)) with
        | n -> (INT n, p)
        | exception Failure _ ->
          raise (Error ("integer literal out of range", p))
      end
      else if is_alpha c then begin
        let start = lx.off in
        while lx.off < String.length lx.src && is_alnum lx.src.[lx.off] do
          lx.off <- lx.off + 1
        done;
        let s = String.sub lx.src start (lx.off - start) in
        ((if List.mem s keywords then KW s else IDENT s), p)
      end
      else
        match
          List.find_opt
            (fun pct ->
              let n = String.length pct in
              lx.off + n <= String.length lx.src
              && String.sub lx.src lx.off n = pct)
            puncts
        with
        | Some pct ->
          lx.off <- lx.off + String.length pct;
          (PUNCT pct, p)
        | None -> error lx "unexpected character %C" c
end

(* Every token of [src] with its position, up to the end of input or
   the first error, which ends the list *)
let token_stream lex_one src =
  let lx = Lexer.create src in
  let rec go acc =
    match lex_one lx with
    | exception Lexer.Error (msg, p) -> List.rev (Error (msg, p) :: acc)
    | (Lexer.EOF, _) as t -> List.rev (Ok t :: acc)
    | t -> go (Ok t :: acc)
  in
  go []

(* A parse's outcome: the program, or the error's message and position.
   Any other exception escapes and fails the test. *)
let parse_outcome parse src =
  match parse src with
  | p -> Ok p
  | exception Parse.Error (msg, p) -> Error (msg, p)

(* The files of test/[dir] named [*suffix]. [dune runtest] runs in the
   test directory, [dune exec] from the project root. *)
let test_files dir ~suffix =
  let dir = if Sys.file_exists dir then dir else Filename.concat "test" dir in
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f suffix)
  |> List.sort compare
  |> List.map (fun f ->
         In_channel.with_open_bin (Filename.concat dir f) In_channel.input_all)

(* The corpus, the test/cli sources, the fuzzer's CImp repros and a
   fixed [Cas_fuzz.Gen] pool, in both languages. *)
let lexer_pool () =
  let rng = Rng.make ~seed:23 in
  let generated lang =
    List.init 60 (fun i ->
        (Cas_fuzz.Gen.program ~lang (Rng.split rng) ~size:(4 + (i mod 4 * 4)))
          .Cas_fuzz.Gen.g_source)
  in
  Corpus.
    [
      counter_src; cross_module_f_src; cross_module_g_src; racy_counter_src;
      racy_observer_writer_src; racy_observer_reader_src; fib_src;
      array_sum_src; mutual_tailcall_src; const_cse_src; spill_src;
      producer_consumer_src; gamma_lock_src; gamma_counter_src;
    ]
  @ List.map snd Corpus.link_module_srcs
  @ test_files "cli" ~suffix:".c"
  @ test_files (Filename.concat "corpus" "fuzz") ~suffix:".cimp"
  @ generated Cas_fuzz.Gen.Clight
  @ generated Cas_fuzz.Gen.Cimp

(* Bytes a mutation writes: every punctuation byte, the two-byte
   tokens' halves, comment openers, digits (long runs make literals past
   [max_int]), letters, layout, and bytes no token starts with. *)
let mutation_bytes = "()[]{};,=+-*/%<>!&|^~:.@#$\"'_aZ09\n\t \000\127\200\255"

(* [k] deterministic byte mutations of [src]: a replaced, inserted or
   deleted byte, a duplicated slice, or a run of digits. *)
let mutants rng ~k src =
  let n = String.length src in
  List.init k (fun _ ->
      let at = if n = 0 then 0 else Rng.int rng n in
      let byte () =
        String.make 1
          mutation_bytes.[Rng.int rng (String.length mutation_bytes)]
      in
      let before = String.sub src 0 at and after = String.sub src at (n - at) in
      match Rng.int rng 5 with
      | 0 when n > 0 -> before ^ byte () ^ String.sub src (at + 1) (n - at - 1)
      | 1 -> before ^ byte () ^ after
      | 2 when n > 0 -> before ^ String.sub src (at + 1) (n - at - 1)
      | 3 ->
        let len = min (n - at) (1 + Rng.int rng 8) in
        before ^ String.sub src at len ^ after
      | _ -> before ^ String.make (1 + Rng.int rng 24) '9' ^ after)

let test_lexer_matches_reference () =
  let rng = Rng.make ~seed:29 in
  let sources = lexer_pool () in
  let inputs = sources @ List.concat_map (mutants rng ~k:12) sources in
  let checked = ref 0 and errors = ref 0 in
  List.iter
    (fun src ->
      let stream = token_stream Lexer.lex_one src in
      if stream <> token_stream Reference.lex_one src then
        Alcotest.failf "token streams differ on %S" src;
      incr checked;
      (match List.rev stream with Error _ :: _ -> incr errors | _ -> ());
      (* a parse ends in a program or a parse error, never another
         exception; a lexing error it reaches is the reference's *)
      List.iter
        (fun outcome ->
          match outcome with
          | Ok () -> ()
          | Error (msg, p) ->
            let lexed =
              List.exists
                (function
                  | Error e -> e = (msg, p)
                  | Ok (_, (q : Lexer.pos)) -> q = p)
                stream
            in
            if not lexed then
              Alcotest.failf "parse error %S at %a is not at a token of %S" msg
                Lexer.pp_pos p src)
        [
          Result.map ignore (parse_outcome Parse.clight src);
          Result.map ignore (parse_outcome Parse.cimp src);
        ])
    inputs;
  check tbool "the pool has lexing errors" true (!errors > 100);
  check tbool "the pool lexes" true (!checked > 2 * !errors)

(* [Parse.peek_binop] by match is the reference's table scan, on every
   punctuation token. *)
let test_binop_matches_reference () =
  List.iter
    (fun pct ->
      let expected =
        List.find_opt (fun (t, _, _) -> t = pct) Reference.binops
        |> Option.map (fun (_, op, prec) -> (op, prec))
      in
      check tbool pct true (Parse.peek_binop (Lexer.create pct) = expected))
    Reference.puncts

(* ------------------------------------------------------------------ *)

let qsuite =
  List.map QCheck_alcotest.to_alcotest [ prop_ops_total; prop_const_binop_agrees ]

let () =
  Alcotest.run "langs"
    [
      ( "ops",
        [
          Alcotest.test_case "arith" `Quick test_ops_arith;
          Alcotest.test_case "pointers" `Quick test_ops_pointers;
        ] );
      ( "cimp",
        [
          Alcotest.test_case "load/store" `Quick test_cimp_load_store;
          Alcotest.test_case "assert abort" `Quick test_cimp_assert_abort;
          Alcotest.test_case "atomic messages" `Quick test_cimp_atomic_msgs;
          Alcotest.test_case "return in atomic aborts" `Quick
            test_cimp_return_inside_atomic_aborts;
          Alcotest.test_case "permission confinement" `Quick
            test_cimp_perm_confinement;
        ] );
      ( "clight",
        [
          Alcotest.test_case "locals and arrays" `Quick
            test_clight_locals_and_addrof;
          Alcotest.test_case "parameters" `Quick test_clight_param_passing;
          Alcotest.test_case "null deref aborts" `Quick
            test_clight_deref_fault_aborts;
          Alcotest.test_case "if/while" `Quick test_clight_if_while;
          Alcotest.test_case "alloc from freelist" `Quick
            test_clight_alloc_footprint_in_flist;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "stage agreement" `Slow
            test_pipeline_stage_agreement;
          Alcotest.test_case "determinism" `Quick test_determinism;
        ] );
      ( "wd (Def. 1)",
        [
          Alcotest.test_case "Clight" `Slow test_wd_clight;
          Alcotest.test_case "CImp" `Quick test_wd_cimp;
          Alcotest.test_case "IRs and x86" `Slow test_wd_pipeline;
          Alcotest.test_case "catches hidden writes" `Quick
            test_wd_catches_hidden_write;
          Alcotest.test_case "catches hidden reads" `Quick
            test_wd_catches_hidden_read;
        ] );
      ( "parse",
        [
          Alcotest.test_case "precedence" `Quick test_parse_precedence;
          Alcotest.test_case "unary/cmp" `Quick test_parse_unary_and_comparison;
          Alcotest.test_case "comments" `Quick test_parse_comments;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "cimp roundtrip" `Quick test_parse_cimp_roundtrip;
          Alcotest.test_case "integer literal out of range" `Quick
            test_parse_int_range;
          Alcotest.test_case "lexer matches the reference" `Quick
            test_lexer_matches_reference;
          Alcotest.test_case "binary operators match the reference" `Quick
            test_binop_matches_reference;
        ] );
      ("properties", qsuite);
    ]
