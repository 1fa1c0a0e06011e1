(** Mini-Clight: the client source language (§7.1), a structured C subset
    in the style of CompCert Clight.

    - Temporaries ([Etemp]/[Sset]) are register-like and never in memory.
    - Declared local variables ([fvars]) are stack-allocated: one block per
      variable, drawn from the thread's freelist at function entry exactly
      as in the paper's instantiation (core carries the index of the next
      block to allocate). They are addressable ([Eaddrof]), which supports
      the cross-module pointer example (2.1) of the paper.
    - Function calls are interaction-semantics calls: [Scall] emits a
      [Msg.Call] resolved by the global linker, whether the callee is in
      the same module, another Clight module, a CImp object, or compiled
      assembly. [print] is an external with an observable event. *)

open Cas_base

module SMap = Map.Make (String)

type expr =
  | Econst of int
  | Etemp of string
  | Evar of string  (** read a stack local (cell 0) *)
  | Eglob of string  (** read a global (cell 0) *)
  | Eaddrof of string  (** &x: local if declared, else global *)
  | Ederef of expr  (** *e, pointer load *)
  | Ebinop of Ops.binop * expr * expr
  | Eunop of Ops.unop * expr

type lhs =
  | Lvar of string
  | Lglob of string
  | Lderef of expr

type stmt =
  | Sskip
  | Sassign of lhs * expr
  | Sset of string * expr  (** temp = e *)
  | Scall of string option * string * expr list
  | Sseq of stmt * stmt
  | Sif of expr * stmt * stmt
  | Swhile of expr * stmt
  | Sreturn of expr option

type func = {
  fname : string;
  fparams : string list;  (** received as temporaries *)
  fvars : (string * int) list;  (** stack-allocated locals and their sizes *)
  fbody : stmt;
}

type program = { funcs : func list; globals : Genv.gvar list }

(* ------------------------------------------------------------------ *)
(* Pretty printing                                                     *)
(* ------------------------------------------------------------------ *)

let rec pp_expr ppf = function
  | Econst n -> Fmt.int ppf n
  | Etemp x -> Fmt.pf ppf "%s" x
  | Evar x -> Fmt.pf ppf "%s" x
  | Eglob x -> Fmt.pf ppf "%s" x
  | Eaddrof x -> Fmt.pf ppf "&%s" x
  | Ederef e -> Fmt.pf ppf "*(%a)" pp_expr e
  | Ebinop (op, a, b) ->
    Fmt.pf ppf "(%a %a %a)" pp_expr a Ops.pp_binop op pp_expr b
  | Eunop (op, a) -> Fmt.pf ppf "(%a%a)" Ops.pp_unop op pp_expr a

let pp_lhs ppf = function
  | Lvar x | Lglob x -> Fmt.string ppf x
  | Lderef e -> Fmt.pf ppf "*(%a)" pp_expr e

let rec pp_stmt ppf = function
  | Sskip -> Fmt.string ppf "skip"
  | Sassign (l, e) -> Fmt.pf ppf "%a = %a" pp_lhs l pp_expr e
  | Sset (x, e) -> Fmt.pf ppf "%s = %a" x pp_expr e
  | Scall (None, f, args) ->
    Fmt.pf ppf "%s(%a)" f Fmt.(list ~sep:comma pp_expr) args
  | Scall (Some x, f, args) ->
    Fmt.pf ppf "%s = %s(%a)" x f Fmt.(list ~sep:comma pp_expr) args
  | Sseq (a, b) -> Fmt.pf ppf "%a; %a" pp_stmt a pp_stmt b
  | Sif (e, a, b) ->
    Fmt.pf ppf "if (%a) {%a} else {%a}" pp_expr e pp_stmt a pp_stmt b
  | Swhile (e, s) -> Fmt.pf ppf "while (%a) {%a}" pp_expr e pp_stmt s
  | Sreturn None -> Fmt.string ppf "return"
  | Sreturn (Some e) -> Fmt.pf ppf "return %a" pp_expr e

(* ------------------------------------------------------------------ *)
(* Semantics                                                           *)
(* ------------------------------------------------------------------ *)

type kont = Kstop | Kseq of stmt * kont | Kwhile of expr * stmt * kont

type core = {
  fn : func;
  blocks : int SMap.t;  (** local variable -> allocated block *)
  temps : Value.t SMap.t;
  pending : (string * int) list;  (** locals still to allocate at entry *)
  cur : stmt;
  k : kont;
  waiting : string option option;
      (** [Some dst] when blocked at an external call *)
  genv : Genv.t;
}

let rec pp_kont ppf = function
  | Kstop -> Fmt.string ppf "."
  | Kseq (s, k) -> Fmt.pf ppf "%a;; %a" pp_stmt s pp_kont k
  | Kwhile (e, s, k) ->
    Fmt.pf ppf "loop(%a,%a);; %a" pp_expr e pp_stmt s pp_kont k

let pp_core ppf c =
  Fmt.pf ppf "{%s env=[%a] tmp=[%a] %a | %a%s}" c.fn.fname
    Fmt.(list ~sep:comma (fun ppf (x, b) -> Fmt.pf ppf "%s@%d" x b))
    (SMap.bindings c.blocks)
    Fmt.(list ~sep:comma (fun ppf (x, v) -> Fmt.pf ppf "%s=%a" x Value.pp v))
    (SMap.bindings c.temps) pp_stmt c.cur pp_kont c.k
    (match c.waiting with None -> "" | Some _ -> " <waiting>")

exception Fault

(** Resolve &x: locals shadow globals. *)
let addr_of_var c x =
  match SMap.find_opt x c.blocks with
  | Some b -> Some (Addr.make b 0)
  | None -> Genv.find_addr c.genv x

(** Big-step pure-with-loads expression evaluation, accumulating the read
    footprint. Raises [Fault] on memory errors (undefined behaviour). *)
let eval c m e : Value.t * Footprint.t =
  let fp = ref Footprint.empty in
  let load a =
    match Memory.load m a with
    | Ok v ->
      fp := Footprint.union !fp (Footprint.read1 a);
      v
    | Error _ -> raise Fault
  in
  let rec go = function
    | Econst n -> Value.Vint n
    | Etemp x -> Option.value ~default:Value.Vundef (SMap.find_opt x c.temps)
    | Evar x | Eglob x -> (
      match addr_of_var c x with Some a -> load a | None -> raise Fault)
    | Eaddrof x -> (
      match addr_of_var c x with Some a -> Value.Vptr a | None -> raise Fault)
    | Ederef e -> (
      match go e with Value.Vptr a -> load a | _ -> raise Fault)
    | Ebinop (op, a, b) ->
      let va = go a in
      let vb = go b in
      Ops.eval_binop op va vb
    | Eunop (op, a) -> Ops.eval_unop op (go a)
  in
  let v = go e in
  (v, !fp)

let lhs_addr c m l : Addr.t * Footprint.t =
  match l with
  | Lvar x | Lglob x -> (
    match addr_of_var c x with Some a -> (a, Footprint.empty) | None -> raise Fault)
  | Lderef e -> (
    match eval c m e with
    | Value.Vptr a, fp -> (a, fp)
    | _ -> raise Fault)

let step (fl : Flist.t) (c : core) (m : Memory.t) : core Lang.succ list =
  if c.waiting <> None then []
  else
    match c.pending with
    | (x, size) :: rest ->
      (* Function-entry stack allocation, one block per step. *)
      let m', b, fp = Memory.alloc m fl ~size ~perm:Perm.Normal in
      [ Lang.Next
          ( Msg.Tau,
            fp,
            { c with pending = rest; blocks = SMap.add x b c.blocks },
            m' ) ]
    | [] -> (
      let tau ?(fp = Footprint.empty) ?m:(m' = m) cur k temps =
        [ Lang.Next (Msg.Tau, fp, { c with cur; k; temps }, m') ]
      in
      try
        match (c.cur, c.k) with
        | Sskip, Kstop ->
          [ Lang.Next (Msg.Ret Value.Vundef, Footprint.empty, c, m) ]
        | Sskip, Kseq (s, k) -> tau s k c.temps
        | Sskip, Kwhile (e, s, k) -> tau (Swhile (e, s)) k c.temps
        | Sset (x, e), k ->
          let v, fp = eval c m e in
          tau ~fp Sskip k (SMap.add x v c.temps)
        | Sassign (l, e), k -> (
          let a, fp1 = lhs_addr c m l in
          let v, fp2 = eval c m e in
          match Memory.store m a v with
          | Ok m' ->
            let fp =
              Footprint.union (Footprint.union fp1 fp2) (Footprint.write1 a)
            in
            tau ~fp ~m:m' Sskip k c.temps
          | Error _ -> [ Lang.Stuck_abort ])
        | Scall (dst, f, args), k ->
          let vs, fps =
            List.fold_left
              (fun (vs, fps) e ->
                let v, fp = eval c m e in
                (v :: vs, Footprint.union fps fp))
              ([], Footprint.empty) args
          in
          [ Lang.Next
              ( Msg.Call (f, List.rev vs),
                fps,
                { c with cur = Sskip; k; waiting = Some dst },
                m ) ]
        | Sseq (a, b), k -> tau a (Kseq (b, k)) c.temps
        | Sif (e, a, b), k ->
          let v, fp = eval c m e in
          if Value.is_true v then tau ~fp a k c.temps else tau ~fp b k c.temps
        | Swhile (e, s), k ->
          let v, fp = eval c m e in
          if Value.is_true v then tau ~fp s (Kwhile (e, s, k)) c.temps
          else tau ~fp Sskip k c.temps
        | Sreturn eo, _ ->
          let v, fp =
            match eo with
            | None -> (Value.Vundef, Footprint.empty)
            | Some e -> eval c m e
          in
          [ Lang.Next (Msg.Ret v, fp, c, m) ]
      with Fault -> [ Lang.Stuck_abort ])

let init_core ~genv (p : program) ~entry ~args : core option =
  match List.find_opt (fun f -> String.equal f.fname entry) p.funcs with
  | None -> None
  | Some f ->
    if List.length f.fparams <> List.length args then None
    else
      let temps =
        List.fold_left2
          (fun env x v -> SMap.add x v env)
          SMap.empty f.fparams args
      in
      Some
        {
          fn = f;
          blocks = SMap.empty;
          temps;
          pending = f.fvars;
          cur = f.fbody;
          k = Kstop;
          waiting = None;
          genv;
        }

let after_external (c : core) (ret : Value.t option) : core option =
  match c.waiting with
  | None -> None
  | Some dst ->
    let temps =
      match dst with
      | None -> c.temps
      | Some x ->
        SMap.add x (Option.value ~default:(Value.Vint 0) ret) c.temps
    in
    Some { c with temps; waiting = None }

(* Streamed state hash, in [pp_core]'s equivalence classes (so
   [pending]/[genv] stay out, and [waiting] contributes only its
   outermost option, exactly as printed). Clight cores are rehashed on
   every client-code step of the exploration engines. *)
let rec hash_expr st = function
  | Econst n ->
    Hashx.char st 'c';
    Hashx.int st n
  | Etemp x ->
    Hashx.char st 't';
    Hashx.string st x
  | Evar x ->
    Hashx.char st 'v';
    Hashx.string st x
  | Eglob x ->
    Hashx.char st 'g';
    Hashx.string st x
  | Eaddrof x ->
    Hashx.char st '&';
    Hashx.string st x
  | Ederef e ->
    Hashx.char st '*';
    hash_expr st e
  | Ebinop (op, a, b) ->
    Hashx.char st 'b';
    Hashx.int st (Hashtbl.hash op);
    hash_expr st a;
    hash_expr st b
  | Eunop (op, a) ->
    Hashx.char st 'u';
    Hashx.int st (Hashtbl.hash op);
    hash_expr st a

let hash_lhs st = function
  | Lvar x ->
    Hashx.char st 'V';
    Hashx.string st x
  | Lglob x ->
    Hashx.char st 'G';
    Hashx.string st x
  | Lderef e ->
    Hashx.char st 'D';
    hash_expr st e

let rec hash_stmt st = function
  | Sskip -> Hashx.char st '0'
  | Sassign (l, e) ->
    Hashx.char st '1';
    hash_lhs st l;
    hash_expr st e
  | Sset (x, e) ->
    Hashx.char st '2';
    Hashx.string st x;
    hash_expr st e
  | Scall (dst, f, args) ->
    Hashx.char st '3';
    (match dst with
    | None -> Hashx.char st '-'
    | Some x ->
      Hashx.char st '=';
      Hashx.string st x);
    Hashx.string st f;
    List.iter (hash_expr st) args
  | Sseq (a, b) ->
    Hashx.char st '4';
    hash_stmt st a;
    hash_stmt st b
  | Sif (e, a, b) ->
    Hashx.char st '5';
    hash_expr st e;
    hash_stmt st a;
    hash_stmt st b
  | Swhile (e, s) ->
    Hashx.char st '6';
    hash_expr st e;
    hash_stmt st s
  | Sreturn None -> Hashx.char st '7'
  | Sreturn (Some e) ->
    Hashx.char st 'R';
    hash_expr st e

let rec hash_kont st = function
  | Kstop -> Hashx.char st '.'
  | Kseq (s, k) ->
    Hashx.char st 'S';
    hash_stmt st s;
    hash_kont st k
  | Kwhile (e, s, k) ->
    Hashx.char st 'W';
    hash_expr st e;
    hash_stmt st s;
    hash_kont st k

let hash_core st c =
  Hashx.string st c.fn.fname;
  SMap.iter
    (fun x b ->
      Hashx.string st x;
      Hashx.char st '@';
      Hashx.int st b)
    c.blocks;
  Hashx.char st '|';
  SMap.iter
    (fun x v ->
      Hashx.string st x;
      Hashx.char st '=';
      Hashx.int st (Value.hash v))
    c.temps;
  Hashx.char st '|';
  hash_stmt st c.cur;
  Hashx.char st '|';
  hash_kont st c.k;
  Hashx.bool st (c.waiting <> None)

let hash_fundef st (p : program) name =
  match List.find_opt (fun f -> String.equal f.fname name) p.funcs with
  | None -> ()
  | Some f -> Hashx.value st f

let lang : (program, core) Lang.t =
  {
    name = "Clight";
    init_core;
    step;
    after_external;
    hash_core;
    hash_fundef;
    pp_core;
    globals_of = (fun p -> p.globals);
    defs_of =
      (fun p ->
        List.map (fun f -> (f.fname, List.length f.fparams)) p.funcs);
  }
