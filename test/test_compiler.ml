(** Per-pass tests for the compiler: transformation-shape unit tests,
    dataflow analyses, and the Fig. 12 property for Selection — the
    selected expression evaluates to the same value with a footprint
    included in the source's — as a qcheck property over random
    expressions. *)

open Cas_base
open Cas_langs
open Cas_compiler

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int

(* ------------------------------------------------------------------ *)
(* SimplLocals                                                         *)
(* ------------------------------------------------------------------ *)

let test_simpllocals_promotes () =
  let p =
    Parse.clight
      {| void f() { int a; int b; a = 1; b = 2; g(&b); print(a + b); } |}
  in
  let p' = Simpllocals.compile p in
  let f = List.hd p'.Clight.funcs in
  check tint "only the addressed local stays" 1 (List.length f.Clight.fvars);
  check tbool "b stays" true (List.mem_assoc "b" f.Clight.fvars)

let test_simpllocals_keeps_arrays () =
  let p = Corpus.array_sum () in
  let p' = Simpllocals.compile p in
  let f = List.hd p'.Clight.funcs in
  (* the array a is indexed via &a, so it must stay in memory *)
  check tbool "array stays" true (List.mem_assoc "a" f.Clight.fvars)

(* ------------------------------------------------------------------ *)
(* Cminorgen layout                                                    *)
(* ------------------------------------------------------------------ *)

let test_cminorgen_layout () =
  let p =
    Parse.clight {| void f() { int a[2]; int b; a[0] = 1; b = 0; g(&b); } |}
  in
  let cm = Cminorgen.compile (Cshmgen.compile (Simpllocals.compile p)) in
  let f = List.hd cm.Cminor.funcs in
  check tint "frame size = 2 (array) + 1 (addressed b)" 3 f.Cminor.stacksize

(* ------------------------------------------------------------------ *)
(* Selection — Fig. 12                                                  *)
(* ------------------------------------------------------------------ *)

(* random Cminor expressions over one global, one temp and the frame *)
let gen_expr : Cminor.expr QCheck.Gen.t =
  let open QCheck.Gen in
  sized @@ fix (fun self n ->
    if n <= 0 then
      oneof
        [
          map (fun c -> Cminor.Econst c) (int_range (-8) 8);
          return (Cminor.Etemp "t");
          return (Cminor.Eaddr_global "g");
          return (Cminor.Eaddr_stack 0);
        ]
    else
      oneof
        [
          map (fun c -> Cminor.Econst c) (int_range (-8) 8);
          map2
            (fun op (a, b) -> Cminor.Ebinop (op, a, b))
            (oneofl Ops.[ Oadd; Osub; Omul; Oand; Oor; Oxor; Oeq; Olt ])
            (pair (self (n / 2)) (self (n / 2)));
          map (fun a -> Cminor.Eunop (Ops.Oneg, a)) (self (n - 1));
          map (fun a -> Cminor.Eload a) (self (n - 1));
        ])

let arb_expr = QCheck.make ~print:(Fmt.str "%a" Cminor.pp_expr) gen_expr

(* a fixed evaluation context: one global g=5, a frame, and temp t=3 *)
let eval_ctx () =
  let globals = [ Genv.gvar ~init:[ Genv.Iint 5 ] "g" 1 ] in
  match Genv.link [ globals ] with
  | Error _ -> assert false
  | Ok genv ->
    let mem = Genv.init_memory genv in
    let fl = Flist.make ~offset:1 ~stride:1 in
    let mem, b, _ = Memory.alloc mem fl ~size:1 ~perm:Perm.Normal in
    let core : Cminor.core =
      {
        Cminor.fn =
          { Cminor.fname = "f"; fparams = []; stacksize = 1; fbody = Cminor.Sskip };
        sp = Some b;
        temps = Cminor.SMap.singleton "t" (Value.Vint 3);
        need_frame = false;
        cur = Cminor.Sskip;
        k = Cminor.Kstop;
        waiting = None;
        genv;
      }
    in
    (core, mem)

let prop_selection_fig12 =
  QCheck.Test.make ~name:"sel_expr_correct: value equal, footprint subset"
    ~count:2000 arb_expr (fun e ->
      let core, mem = eval_ctx () in
      let sel = Selection.sel_expr e in
      match (Cminor.eval core mem e, Cminor.eval core mem sel) with
      | (v1, fp1), (v2, fp2) ->
        Value.equal v1 v2 && Footprint.subset fp2 fp1
      | exception Cminor.Fault -> (
        (* if the source faults, selection may fault too *)
        match Cminor.eval core mem sel with
        | exception Cminor.Fault -> true
        | _ -> true))

let test_selection_immediates () =
  let e = Cminor.Ebinop (Ops.Oadd, Cminor.Etemp "t", Cminor.Econst 4) in
  (match Selection.sel_expr e with
  | Cminor.Ebinop_imm (Ops.Oadd, Cminor.Etemp "t", 4) -> ()
  | _ -> Alcotest.fail "expected selected immediate form");
  (* commuted constant *)
  let e = Cminor.Ebinop (Ops.Omul, Cminor.Econst 2, Cminor.Etemp "t") in
  (match Selection.sel_expr e with
  | Cminor.Ebinop_imm (Ops.Omul, Cminor.Etemp "t", 2) -> ()
  | _ -> Alcotest.fail "expected commuted immediate form");
  (* constants folded *)
  match Selection.sel_expr (Cminor.Ebinop (Ops.Oadd, Cminor.Econst 2, Cminor.Econst 3)) with
  | Cminor.Econst 5 -> ()
  | _ -> Alcotest.fail "expected folded constant"

(* ------------------------------------------------------------------ *)
(* RTL-level passes                                                    *)
(* ------------------------------------------------------------------ *)

let rtl_of src entry =
  let a = Driver.compile_artifacts (Parse.clight src) in
  ignore entry;
  a

let count_instrs p f =
  let fn = List.find (fun (x : Rtl.func) -> x.Rtl.fname = f) p.Rtl.funcs in
  Rtl.IMap.cardinal fn.Rtl.code

let test_tailcall_fires () =
  let a = rtl_of Corpus.mutual_tailcall_src "even" in
  let has_tailcall p name =
    let fn = List.find (fun (x : Rtl.func) -> x.Rtl.fname = name) p.Rtl.funcs in
    Rtl.IMap.exists (fun _ i -> match i with Rtl.Itailcall _ -> true | _ -> false)
      fn.Rtl.code
  in
  check tbool "no tailcall before" false (has_tailcall a.Driver.rtl "even");
  check tbool "tailcall after" true (has_tailcall a.Driver.rtl_tailcall "even");
  check tbool "odd too" true (has_tailcall a.Driver.rtl_tailcall "odd")

let test_tailcall_needs_empty_frame () =
  (* a function with stack data must not tail-call *)
  let src = {| int f(int n) { int a; a = 0; g(&a); return h(n); } |} in
  let a = rtl_of src "f" in
  let fn = List.find (fun (x : Rtl.func) -> x.Rtl.fname = "f") a.Driver.rtl_tailcall.Rtl.funcs in
  check tbool "stackful function keeps calls" false
    (Rtl.IMap.exists (fun _ i -> match i with Rtl.Itailcall _ -> true | _ -> false)
       fn.Rtl.code)

let test_renumber_compact () =
  let a = rtl_of Corpus.fib_src "fib" in
  let fn = List.find (fun (x : Rtl.func) -> x.Rtl.fname = "fib") a.Driver.rtl_renumber.Rtl.funcs in
  let nodes = List.map fst (Rtl.IMap.bindings fn.Rtl.code) in
  let n = List.length nodes in
  check tbool "nodes are 1..n" true
    (List.sort compare nodes = List.init n (fun i -> i + 1));
  check tint "entry is 1" 1 fn.Rtl.entry

let test_constprop_folds () =
  let src = {| int g = 0; void main() { int a; a = 3 * 4; g = a + 1; print(g); } |} in
  let a = rtl_of src "main" in
  let fn = List.find (fun (x : Rtl.func) -> x.Rtl.fname = "main") a.Driver.rtl_constprop.Rtl.funcs in
  (* after constprop, some Iop must be Oconst 13 *)
  check tbool "13 materialized" true
    (Rtl.IMap.exists
       (fun _ i -> match i with Rtl.Iop (Rtl.Oconst 13, _, _) -> true | _ -> false)
       fn.Rtl.code)

let test_constprop_kills_branches () =
  let src = {| void main() { if (1 < 2) { print(1); } else { print(2); } } |} in
  let a = rtl_of src "main" in
  let fn = List.find (fun (x : Rtl.func) -> x.Rtl.fname = "main") a.Driver.rtl_constprop.Rtl.funcs in
  check tbool "constant branch removed" false
    (Rtl.IMap.exists
       (fun _ i -> match i with Rtl.Icond _ -> true | _ -> false)
       fn.Rtl.code)

let test_cse_dedups () =
  (* b = (t*t) + (t*t): the second t*t should become a move after CSE *)
  (* t comes from a memory load, so ConstProp cannot fold it first *)
  let src = {| int g = 7; int r = 0; void main(){ int t; t = g; r = t * t + t * t; print(r); } |} in
  let a = rtl_of src "main" in
  let count_muls p =
    let fn = List.find (fun (x : Rtl.func) -> x.Rtl.fname = "main") p.Rtl.funcs in
    Rtl.IMap.fold
      (fun _ i acc ->
        match i with
        | Rtl.Iop (Rtl.Obinop (Ops.Omul, _, _), _, _) -> acc + 1
        | _ -> acc)
      fn.Rtl.code 0
  in
  check tbool "cse reduces multiplications" true
    (count_muls a.Driver.rtl_cse < count_muls a.Driver.rtl_constprop)

let test_deadcode_removes_dead_load () =
  (* t = g; t never used afterwards: the load must disappear *)
  let src = {| int g = 7; void main() { int t; t = g; print(3); } |} in
  let a = rtl_of src "main" in
  let count_loads p =
    let fn = List.find (fun (x : Rtl.func) -> x.Rtl.fname = "main") p.Rtl.funcs in
    Rtl.IMap.fold
      (fun _ i acc -> match i with Rtl.Iload _ -> acc + 1 | _ -> acc)
      fn.Rtl.code 0
  in
  check tbool "dead load removed" true
    (count_loads a.Driver.rtl_deadcode < count_loads a.Driver.rtl_cse)

let test_deadcode_loop_carried () =
  (* x is live around the loop only for the dead copy d = x. Once the
     copy goes, liveness carried over from the previous round would keep
     x live around the back edge, and with it the load; solved from
     empty, x is dead and the load goes too *)
  let src =
    {| int g = 7;
       void main() { int x; int d; int i;
                     x = g; i = 0;
                     while (i < 3) { d = x; i = i + 1; }
                     print(i); } |}
  in
  let a = rtl_of src "main" in
  let fn =
    List.find
      (fun (x : Rtl.func) -> x.Rtl.fname = "main")
      a.Driver.rtl_deadcode.Rtl.funcs
  in
  check tbool "load removed" false
    (Rtl.IMap.exists (fun _ i -> match i with Rtl.Iload _ -> true | _ -> false)
       fn.Rtl.code)

let test_deadcode_keeps_stores_and_calls () =
  let src = {| int g = 0; void main() { g = 5; print(1); } |} in
  let a = rtl_of src "main" in
  let fn = List.find (fun (x : Rtl.func) -> x.Rtl.fname = "main") a.Driver.rtl_deadcode.Rtl.funcs in
  check tbool "store survives" true
    (Rtl.IMap.exists (fun _ i -> match i with Rtl.Istore _ -> true | _ -> false)
       fn.Rtl.code);
  check tbool "call survives" true
    (Rtl.IMap.exists
       (fun _ i ->
         match i with Rtl.Icall _ | Rtl.Itailcall _ -> true | _ -> false)
       fn.Rtl.code)

let test_deadcode_keeps_live_ops () =
  let src = {| int f(int n) { return n + 1; } |} in
  let a = rtl_of src "f" in
  let fn = List.find (fun (x : Rtl.func) -> x.Rtl.fname = "f") a.Driver.rtl_deadcode.Rtl.funcs in
  check tbool "live op survives" true
    (Rtl.IMap.exists
       (fun _ i ->
         match i with Rtl.Iop (Rtl.Obinop_imm (Ops.Oadd, _, 1), _, _) -> true | _ -> false)
       fn.Rtl.code)

(* ------------------------------------------------------------------ *)
(* Liveness                                                            *)
(* ------------------------------------------------------------------ *)

let test_liveness_params_live_at_entry () =
  let a = rtl_of Corpus.fib_src "fib" in
  let fn = List.find (fun (x : Rtl.func) -> x.Rtl.fname = "fib") a.Driver.rtl.Rtl.funcs in
  let live = Liveness.analyze fn in
  let entry_live = Liveness.live_in live fn.Rtl.entry in
  check tbool "parameter live at entry" true
    (List.exists (fun p -> Liveness.ISet.mem p entry_live) fn.Rtl.fparams)

let test_liveness_dead_after_return () =
  let a = rtl_of {| int f() { return 1; } |} "f" in
  let fn = List.find (fun (x : Rtl.func) -> x.Rtl.fname = "f") a.Driver.rtl.Rtl.funcs in
  let live = Liveness.analyze fn in
  Rtl.IMap.iter
    (fun n i ->
      match i with
      | Rtl.Ireturn _ ->
        check tint "nothing live after return" 0
          (Liveness.ISet.cardinal (Liveness.live_out live n))
      | _ -> ())
    fn.Rtl.code

(* The map-and-set liveness solver and the round-by-round Deadcode that
   the dense CFG replaced, kept as references: a FIFO worklist seeded
   with every node in ascending order over [IMap]s of [ISet]s, and a full
   re-analysis of the rewritten code map per Deadcode round. Allocation's
   interference construction over them is the reference for the order
   in which interference edges enter its table. *)
module Reference = struct
  module IMap = Rtl.IMap
  module ISet = Liveness.ISet

  type t = { live_in : ISet.t IMap.t; live_out : ISet.t IMap.t }

  let get m n = Option.value ~default:ISet.empty (IMap.find_opt n m)
  let live_in t n = get t.live_in n
  let live_out t n = get t.live_out n

  let analyze (f : Rtl.func) : t =
    let live_in = ref IMap.empty in
    let live_out = ref IMap.empty in
    let preds =
      IMap.fold
        (fun n i acc ->
          List.fold_left
            (fun acc s ->
              IMap.update s
                (fun l -> Some (n :: Option.value ~default:[] l))
                acc)
            acc (Rtl.successors i))
        f.Rtl.code IMap.empty
    in
    let worklist = Queue.create () in
    IMap.iter (fun n _ -> Queue.add n worklist) f.Rtl.code;
    while not (Queue.is_empty worklist) do
      let n = Queue.pop worklist in
      match IMap.find_opt n f.Rtl.code with
      | None -> ()
      | Some i ->
        let out =
          List.fold_left
            (fun acc s -> ISet.union acc (get !live_in s))
            ISet.empty (Rtl.successors i)
        in
        let ins =
          let minus_def =
            match Rtl.defs i with Some d -> ISet.remove d out | None -> out
          in
          List.fold_left (fun acc u -> ISet.add u acc) minus_def (Rtl.uses i)
        in
        live_out := IMap.add n out !live_out;
        if not (ISet.equal ins (get !live_in n)) then begin
          live_in := IMap.add n ins !live_in;
          List.iter
            (fun p -> Queue.add p worklist)
            (Option.value ~default:[] (IMap.find_opt n preds))
        end
    done;
    { live_in = !live_in; live_out = !live_out }

  let rec deadcode (f : Rtl.func) : Rtl.func =
    let live = analyze f in
    let changed = ref false in
    let code =
      IMap.mapi
        (fun n i ->
          match Deadcode.pure_def i with
          | Some (d, succ) when not (ISet.mem d (live_out live n)) ->
            changed := true;
            Rtl.Inop succ
          | _ -> i)
        f.Rtl.code
    in
    if !changed then deadcode { f with Rtl.code } else f

  let build_interference (f : Rtl.func) (live : t) : (int, ISet.t) Hashtbl.t =
    let g : (int, ISet.t) Hashtbl.t = Hashtbl.create 64 in
    let ensure r = if not (Hashtbl.mem g r) then Hashtbl.add g r ISet.empty in
    let edge a b =
      if a <> b then begin
        ensure a;
        ensure b;
        Hashtbl.replace g a (ISet.add b (Hashtbl.find g a));
        Hashtbl.replace g b (ISet.add a (Hashtbl.find g b))
      end
    in
    List.iter ensure f.Rtl.fparams;
    IMap.iter
      (fun n i ->
        List.iter ensure (Rtl.uses i);
        match Rtl.defs i with
        | None -> ()
        | Some d ->
          ensure d;
          ISet.iter (fun r -> edge d r) (live_out live n))
      f.Rtl.code;
    let rec param_pairs = function
      | [] -> ()
      | p :: rest ->
        List.iter (edge p) rest;
        param_pairs rest
    in
    param_pairs f.Rtl.fparams;
    g

  let live_across_calls (f : Rtl.func) (live : t) : ISet.t =
    IMap.fold
      (fun n i acc ->
        match i with
        | Rtl.Icall (_, _, dst, _) ->
          let out = live_out live n in
          let out = match dst with Some d -> ISet.remove d out | None -> out in
          ISet.union acc out
        | _ -> acc)
      f.Rtl.code ISet.empty
end

(* Where the dense liveness, Deadcode or Allocation part from the
   reference on [f], if anywhere: live-in and live-out sets at every
   node, Deadcode's output, and Allocation's output on that output with
   its interference table's bindings in walk order. *)
let reference_mismatch (f : Rtl.func) : string option =
  let module ISet = Liveness.ISet in
  let live = Liveness.analyze f and reference = Reference.analyze f in
  let node_mismatch =
    Rtl.IMap.to_seq f.Rtl.code
    |> Seq.find_map (fun (n, _) ->
           let live_in = Liveness.live_in live n
           and live_out = Liveness.live_out live n in
           if not (ISet.equal live_in (Reference.live_in reference n)) then
             Some (Fmt.str "live-in at node %d" n)
           else if not (ISet.equal live_out (Reference.live_out reference n))
           then Some (Fmt.str "live-out at node %d" n)
           else None)
  in
  let dead = Deadcode.tr_func f in
  let table_order g = Hashtbl.fold (fun r adj acc -> (r, adj) :: acc) g [] in
  let allocation_mismatch () =
    let live = Liveness.analyze dead and reference = Reference.analyze dead in
    let g = Allocation.build_interference dead live in
    let g_ref = Reference.build_interference dead reference in
    if table_order g <> table_order g_ref then Some "interference table order"
    else if
      not
        (ISet.equal
           (Allocation.live_across_calls live)
           (Reference.live_across_calls dead reference))
    then Some "registers live across calls"
    else if
      Allocation.tr_func dead
      <> Allocation.emit_func dead
           ~forced_slots:(Reference.live_across_calls dead reference)
           g_ref
    then Some "Allocation output"
    else None
  in
  match node_mismatch with
  | Some _ -> node_mismatch
  | None ->
    if dead <> Reference.deadcode f then Some "Deadcode output"
    else allocation_mismatch ()

(* RTLgen's output (sparse node ids) and Deadcode's input, per function. *)
let reference_failures (p : Clight.program) : string list =
  let a = Driver.compile_artifacts p in
  List.concat_map
    (fun (stage, (prog : Rtl.program)) ->
      List.filter_map
        (fun (f : Rtl.func) ->
          Option.map
            (Fmt.str "%s after %s: %s" f.Rtl.fname stage)
            (reference_mismatch f))
        prog.Rtl.funcs)
    [ ("RTLgen", a.Driver.rtl); ("CSE", a.Driver.rtl_cse) ]

let check_against_reference name p =
  match reference_failures p with
  | [] -> ()
  | msg :: _ -> Alcotest.failf "%s: %s differs from the reference" name msg

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

let test_liveness_reference_corpus () =
  List.iter
    (fun (name, p) -> check_against_reference name p)
    (corpus_modules ())

(* Generated programs of every shape the fuzzer draws: sizes 4, 8 and 15,
   one to three threads, with and without the lock; eight of each. *)
let test_liveness_reference_generated () =
  let rng = Rng.make ~seed:18 in
  List.iter
    (fun size ->
      List.iter
        (fun (threads, lock) ->
          for i = 1 to 8 do
            let rec draw () =
              let g = Cas_fuzz.Gen.clight (Rng.split rng) ~size in
              if List.length g.g_entries = threads && g.g_with_lock = lock
              then g
              else draw ()
            in
            let g = draw () in
            check_against_reference
              (Fmt.str "size %d, %d thread(s), lock %b, #%d" size threads
                 lock i)
              (Parse.clight g.g_source)
          done)
        [ (1, false); (2, false); (3, false); (1, true); (2, true); (3, true) ])
    [ 4; 8; 15 ]

let prop_liveness_reference_random =
  QCheck.Test.make ~name:"liveness, Deadcode and Allocation match the reference"
    ~count:200 Randprog.arb_program (fun p -> reference_failures p = [])

(* ------------------------------------------------------------------ *)
(* Allocation discipline and Stacking                                  *)
(* ------------------------------------------------------------------ *)

let all_clients () = Corpus.sequential_clients ()

let test_allocation_slot_discipline () =
  (* Stacking accepts every allocator output: slots only in moves *)
  List.iter
    (fun (name, client, _) ->
      let a = Driver.compile_artifacts client in
      match Stacking.compile a.Driver.linear_clean with
      | _ -> check tbool (Fmt.str "%s obeys slot discipline" name) true true
      | exception Stacking.Bad_linear msg ->
        Alcotest.failf "%s violates slot discipline: %s" name msg)
    (all_clients ())

let test_allocation_conventional_calls () =
  List.iter
    (fun (name, client, _) ->
      let a = Driver.compile_artifacts client in
      List.iter
        (fun (f : Machl.func) ->
          List.iter
            (function
              | Machl.Mcall (_, arity, _) | Machl.Mtailcall (_, arity) ->
                check tbool
                  (Fmt.str "%s/%s arity within convention" name f.Machl.fname)
                  true
                  (arity <= List.length Mreg.arg_regs)
              | _ -> ())
            f.Machl.code)
        a.Driver.mach.Machl.funcs)
    (all_clients ())

let test_spill_program_uses_slots () =
  let a = Driver.compile_artifacts (Corpus.spill ()) in
  let f = List.find (fun (x : Machl.func) -> x.Machl.fname = "main") a.Driver.mach.Machl.funcs in
  check tbool "spill code has slots" true (f.Machl.nslots > 0)

(* ------------------------------------------------------------------ *)
(* Tunneling / Linearize / CleanupLabels                               *)
(* ------------------------------------------------------------------ *)

let count_ltl_nop_targets (p : Ltl.program) =
  (* number of branch edges that land on an Lnop *)
  List.fold_left
    (fun acc (f : Ltl.func) ->
      Ltl.IMap.fold
        (fun _ i acc ->
          List.fold_left
            (fun acc s ->
              match Ltl.IMap.find_opt s f.Ltl.code with
              | Some (Ltl.Lnop _) -> acc + 1
              | _ -> acc)
            acc (Ltl.successors i))
        f.Ltl.code acc)
    0 p.Ltl.funcs

let test_tunneling_shortens () =
  let a = Driver.compile_artifacts (Corpus.fib ()) in
  check tbool "tunneling reduces nop targets" true
    (count_ltl_nop_targets a.Driver.ltl_tunneled
    <= count_ltl_nop_targets a.Driver.ltl);
  (* resolve never loops, even on pathological self-loops *)
  let code = Ltl.IMap.singleton 1 (Ltl.Lnop 1) in
  check tint "self-loop nop resolves" 1 (Tunneling.resolve code 1)

let test_cleanuplabels_removes () =
  let a = Driver.compile_artifacts (Corpus.fib ()) in
  let labels p =
    List.fold_left
      (fun acc (f : Linearl.func) ->
        List.fold_left
          (fun acc i -> match i with Linearl.Llabel _ -> acc + 1 | _ -> acc)
          acc f.Linearl.code)
      0 p.Linearl.funcs
  in
  check tbool "labels strictly reduced" true
    (labels a.Driver.linear_clean < labels a.Driver.linear);
  (* remaining labels are all referenced *)
  List.iter
    (fun (f : Linearl.func) ->
      let used = Cleanuplabels.referenced f.Linearl.code in
      List.iter
        (function
          | Linearl.Llabel l ->
            check tbool "label referenced" true (Hashtbl.mem used l)
          | _ -> ())
        f.Linearl.code)
    a.Driver.linear_clean.Linearl.funcs

(* ------------------------------------------------------------------ *)
(* Asmgen                                                              *)
(* ------------------------------------------------------------------ *)

let test_asmgen_two_address () =
  (* d := d op s stays a single two-address instruction *)
  let i = Asmgen.tr_op (Mreg.Gbinop (Ops.Oadd, Mreg.AX, Mreg.BX)) Mreg.AX in
  check tint "in-place binop is one instruction" 1 (List.length i);
  (* commutative with d = second operand swaps *)
  (match Asmgen.tr_op (Mreg.Gbinop (Ops.Oadd, Mreg.BX, Mreg.AX)) Mreg.AX with
  | [ Asm.Pbinop_rr (Ops.Oadd, Mreg.AX, Mreg.BX) ] -> ()
  | _ -> Alcotest.fail "expected swapped operands");
  (* non-commutative with clash falls back to the 3-address pseudo *)
  match Asmgen.tr_op (Mreg.Gbinop (Ops.Osub, Mreg.BX, Mreg.AX)) Mreg.AX with
  | [ Asm.Pbinop3 (Ops.Osub, Mreg.AX, Mreg.BX, Mreg.AX) ] -> ()
  | _ -> Alcotest.fail "expected 3-address fallback"

let test_asmgen_frame_offsets () =
  let a = Driver.compile_artifacts (Corpus.spill ()) in
  let mf = List.find (fun (x : Machl.func) -> x.Machl.fname = "main") a.Driver.mach.Machl.funcs in
  let af = List.find (fun (x : Asm.func) -> x.Asm.fname = "main") a.Driver.asm.Asm.funcs in
  check tint "asm frame covers mach frame" (Machl.frame_size mf) af.Asm.framesize;
  (* every stack access stays in frame *)
  List.iter
    (function
      | Asm.Pload_stack (_, ofs) | Asm.Pstore_stack (ofs, _) ->
        check tbool "stack offset in frame" true (ofs >= 0 && ofs < af.Asm.framesize)
      | _ -> ())
    af.Asm.code

(* ------------------------------------------------------------------ *)
(* Whole-pipeline sizes sanity                                         *)
(* ------------------------------------------------------------------ *)

let test_driver_pass_count () =
  check tint "Fig. 11 + SimplLocals + extensions" 16
    (List.length Driver.pass_names)

let test_optimize_flag () =
  let a_opt = Driver.compile_artifacts (Corpus.const_cse ()) in
  let a_noopt =
    Driver.compile_artifacts ~options:{ Driver.optimize = false }
      (Corpus.const_cse ())
  in
  ignore (count_instrs a_opt.Driver.rtl_cse "main");
  check tbool "no-opt keeps rtl unchanged" true
    (a_noopt.Driver.rtl_cse == a_noopt.Driver.rtl_renumber
    || a_noopt.Driver.rtl_cse = a_noopt.Driver.rtl_renumber)

(* ------------------------------------------------------------------ *)

(* Pinned generator seed for the random-program property; override with
   QCHECK_SEED=n to explore a different slice of the input space. *)
let qcheck_seed =
  match Sys.getenv_opt "QCHECK_SEED" with
  | Some s -> (try int_of_string s with _ -> 0x5ca1ab1e)
  | None -> 0x5ca1ab1e

let qsuite =
  QCheck_alcotest.to_alcotest prop_selection_fig12
  :: [
       QCheck_alcotest.to_alcotest
         ~rand:(Random.State.make [| qcheck_seed |])
         prop_liveness_reference_random;
     ]

let () =
  Alcotest.run "compiler"
    [
      ( "simpllocals",
        [
          Alcotest.test_case "promotes" `Quick test_simpllocals_promotes;
          Alcotest.test_case "keeps arrays" `Quick test_simpllocals_keeps_arrays;
        ] );
      ("cminorgen", [ Alcotest.test_case "layout" `Quick test_cminorgen_layout ]);
      ( "selection",
        [ Alcotest.test_case "immediates" `Quick test_selection_immediates ] );
      ( "rtl passes",
        [
          Alcotest.test_case "tailcall fires" `Quick test_tailcall_fires;
          Alcotest.test_case "tailcall frame condition" `Quick
            test_tailcall_needs_empty_frame;
          Alcotest.test_case "renumber compact" `Quick test_renumber_compact;
          Alcotest.test_case "constprop folds" `Quick test_constprop_folds;
          Alcotest.test_case "constprop kills branches" `Quick
            test_constprop_kills_branches;
          Alcotest.test_case "cse dedups" `Quick test_cse_dedups;
          Alcotest.test_case "deadcode removes dead load" `Quick
            test_deadcode_removes_dead_load;
          Alcotest.test_case "deadcode removes loop-carried dead load" `Quick
            test_deadcode_loop_carried;
          Alcotest.test_case "deadcode keeps effects" `Quick
            test_deadcode_keeps_stores_and_calls;
          Alcotest.test_case "deadcode keeps live ops" `Quick
            test_deadcode_keeps_live_ops;
        ] );
      ( "liveness",
        [
          Alcotest.test_case "params live at entry" `Quick
            test_liveness_params_live_at_entry;
          Alcotest.test_case "dead after return" `Quick
            test_liveness_dead_after_return;
          Alcotest.test_case "matches the reference on the corpus" `Quick
            test_liveness_reference_corpus;
          Alcotest.test_case "matches the reference on generated programs"
            `Quick test_liveness_reference_generated;
        ] );
      ( "allocation/stacking",
        [
          Alcotest.test_case "slot discipline" `Quick
            test_allocation_slot_discipline;
          Alcotest.test_case "conventional calls" `Quick
            test_allocation_conventional_calls;
          Alcotest.test_case "spill uses slots" `Quick
            test_spill_program_uses_slots;
        ] );
      ( "tunneling/linearize",
        [
          Alcotest.test_case "tunneling" `Quick test_tunneling_shortens;
          Alcotest.test_case "cleanuplabels" `Quick test_cleanuplabels_removes;
        ] );
      ( "asmgen",
        [
          Alcotest.test_case "two-address lowering" `Quick
            test_asmgen_two_address;
          Alcotest.test_case "frame offsets" `Quick test_asmgen_frame_offsets;
        ] );
      ( "driver",
        [
          Alcotest.test_case "pass count" `Quick test_driver_pass_count;
          Alcotest.test_case "optimize flag" `Quick test_optimize_flag;
        ] );
      ("properties", qsuite);
    ]
