(** CImp: the simple imperative language used for source-level object
    (synchronization library) code (§7.1, Fig. 10(a)).

    Distinctive features:
    - atomic blocks ⟨C⟩, which emit [EntAtom]/[ExtAtom] messages so the
      global semantics disables preemption inside them;
    - [assert(B)], which aborts on falsity;
    - explicit loads [r := [e]] and stores [[e] := e'] — local variables
      are pure registers and never touch memory.

    Per §7.1, CImp may only access memory with the [Object] permission:
    object data is invisible to clients and vice versa, which is what
    confines the benign races of the optimized x86-TSO implementation. *)

open Cas_base

module SMap = Map.Make (String)

type expr =
  | Eint of int
  | Evar of string  (** register read *)
  | Eglob of string  (** address of a global, e.g. [L] *)
  | Ebinop of Ops.binop * expr * expr
  | Eunop of Ops.unop * expr

type stmt =
  | Sskip
  | Sassign of string * expr  (** r := e *)
  | Sload of string * expr  (** r := [e] *)
  | Sstore of expr * expr  (** [e1] := e2 *)
  | Sseq of stmt * stmt
  | Sif of expr * stmt * stmt
  | Swhile of expr * stmt
  | Satomic of stmt  (** ⟨s⟩ *)
  | Sassert of expr
  | Sprint of expr  (** print(e) — the built-in observable output *)
  | Sreturn of expr option

type func = { fname : string; fparams : string list; fbody : stmt }
type program = { funcs : func list; globals : Genv.gvar list }

(* ------------------------------------------------------------------ *)
(* Pretty printing (also used for core fingerprints)                   *)
(* ------------------------------------------------------------------ *)

let rec pp_expr ppf = function
  | Eint n -> Fmt.int ppf n
  | Evar x -> Fmt.string ppf x
  | Eglob g -> Fmt.pf ppf "%s" g
  | Ebinop (op, a, b) ->
    Fmt.pf ppf "(%a %a %a)" pp_expr a Ops.pp_binop op pp_expr b
  | Eunop (op, a) -> Fmt.pf ppf "(%a%a)" Ops.pp_unop op pp_expr a

let rec pp_stmt ppf = function
  | Sskip -> Fmt.string ppf "skip"
  | Sassign (x, e) -> Fmt.pf ppf "%s := %a" x pp_expr e
  | Sload (x, e) -> Fmt.pf ppf "%s := [%a]" x pp_expr e
  | Sstore (e1, e2) -> Fmt.pf ppf "[%a] := %a" pp_expr e1 pp_expr e2
  | Sseq (a, b) -> Fmt.pf ppf "%a; %a" pp_stmt a pp_stmt b
  | Sif (e, a, b) ->
    Fmt.pf ppf "if (%a) {%a} else {%a}" pp_expr e pp_stmt a pp_stmt b
  | Swhile (e, s) -> Fmt.pf ppf "while (%a) {%a}" pp_expr e pp_stmt s
  | Satomic s -> Fmt.pf ppf "<%a>" pp_stmt s
  | Sassert e -> Fmt.pf ppf "assert(%a)" pp_expr e
  | Sprint e -> Fmt.pf ppf "print(%a)" pp_expr e
  | Sreturn None -> Fmt.string ppf "return"
  | Sreturn (Some e) -> Fmt.pf ppf "return %a" pp_expr e

(* ------------------------------------------------------------------ *)
(* Semantics                                                           *)
(* ------------------------------------------------------------------ *)

type kont =
  | Kstop
  | Kseq of stmt * kont
  | Kwhile of expr * stmt * kont
  | Kendatom of kont  (** pending [ExtAtom] *)

type core = {
  env : Value.t SMap.t;
  cur : stmt;
  k : kont;
  genv : Genv.t;
}

let rec pp_kont ppf = function
  | Kstop -> Fmt.string ppf "."
  | Kseq (s, k) -> Fmt.pf ppf "%a; %a" pp_stmt s pp_kont k
  | Kwhile (e, s, k) -> Fmt.pf ppf "loop(%a,%a); %a" pp_expr e pp_stmt s pp_kont k
  | Kendatom k -> Fmt.pf ppf ">; %a" pp_kont k

let pp_core ppf c =
  Fmt.pf ppf "{%a | %a | %a}"
    Fmt.(
      list ~sep:comma (fun ppf (x, v) -> Fmt.pf ppf "%s=%a" x Value.pp v))
    (SMap.bindings c.env) pp_stmt c.cur pp_kont c.k

(** Expression evaluation is pure: registers and global addresses only.
    All memory access goes through Sload/Sstore. *)
let rec eval genv env = function
  | Eint n -> Value.Vint n
  | Evar x -> Option.value ~default:Value.Vundef (SMap.find_opt x env)
  | Eglob g -> (
    match Genv.find_addr genv g with Some a -> Value.Vptr a | None -> Value.Vundef)
  | Ebinop (op, a, b) -> Ops.eval_binop op (eval genv env a) (eval genv env b)
  | Eunop (op, a) -> Ops.eval_unop op (eval genv env a)

let step (_fl : Flist.t) (c : core) (m : Memory.t) : core Lang.succ list =
  let tau ?(fp = Footprint.empty) cur k env =
    [ Lang.Next (Msg.Tau, fp, { c with cur; k; env }, m) ]
  in
  match (c.cur, c.k) with
  | Sskip, Kstop -> [ Lang.Next (Msg.Ret Value.Vundef, Footprint.empty, c, m) ]
  | Sskip, Kseq (s, k) -> tau s k c.env
  | Sskip, Kwhile (e, s, k) -> tau (Swhile (e, s)) k c.env
  | Sskip, Kendatom k ->
    [ Lang.Next (Msg.ExtAtom, Footprint.empty, { c with cur = Sskip; k }, m) ]
  | Sassign (x, e), k ->
    let v = eval c.genv c.env e in
    tau Sskip k (SMap.add x v c.env)
  | Sload (x, e), k -> (
    match eval c.genv c.env e with
    | Value.Vptr a -> (
      match Memory.load ~perm:Perm.Object m a with
      | Ok v ->
        tau ~fp:(Footprint.read1 a) Sskip k (SMap.add x v c.env)
      | Error _ -> [ Lang.Stuck_abort ])
    | _ -> [ Lang.Stuck_abort ])
  | Sstore (e1, e2), k -> (
    match eval c.genv c.env e1 with
    | Value.Vptr a -> (
      let v = eval c.genv c.env e2 in
      match Memory.store ~perm:Perm.Object m a v with
      | Ok m' ->
        [ Lang.Next
            (Msg.Tau, Footprint.write1 a, { c with cur = Sskip; k }, m') ]
      | Error _ -> [ Lang.Stuck_abort ])
    | _ -> [ Lang.Stuck_abort ])
  | Sseq (a, b), k -> tau a (Kseq (b, k)) c.env
  | Sif (e, a, b), k ->
    if Value.is_true (eval c.genv c.env e) then tau a k c.env else tau b k c.env
  | Swhile (e, s), k ->
    if Value.is_true (eval c.genv c.env e) then tau s (Kwhile (e, s, k)) c.env
    else tau Sskip k c.env
  | Satomic s, k ->
    [ Lang.Next
        (Msg.EntAtom, Footprint.empty, { c with cur = s; k = Kendatom k }, m) ]
  | Sassert e, k ->
    if Value.is_true (eval c.genv c.env e) then tau Sskip k c.env
    else [ Lang.Stuck_abort ]
  | Sprint e, k ->
    (* The world semantics handles [Call ("print", [Vint n])] itself and
       fires the [Print] event; [after_external] below resumes at the
       already-installed [Sskip]. A non-integer argument falls through
       to call resolution and aborts, like Clight's print. *)
    let v = eval c.genv c.env e in
    [ Lang.Next
        (Msg.Call ("print", [ v ]), Footprint.empty, { c with cur = Sskip; k }, m)
    ]
  | Sreturn eo, _ ->
    (* Returns are only legal outside atomic blocks; inside one, the
       program is stuck (= abort). *)
    let rec inside_atom = function
      | Kendatom _ -> true
      | Kseq (_, k) | Kwhile (_, _, k) -> inside_atom k
      | Kstop -> false
    in
    if inside_atom c.k then [ Lang.Stuck_abort ]
    else
      let v =
        match eo with None -> Value.Vundef | Some e -> eval c.genv c.env e
      in
      [ Lang.Next (Msg.Ret v, Footprint.empty, c, m) ]

let init_core ~genv (p : program) ~entry ~args : core option =
  match List.find_opt (fun f -> String.equal f.fname entry) p.funcs with
  | None -> None
  | Some f ->
    if List.length f.fparams <> List.length args then None
    else
      let env =
        List.fold_left2
          (fun env x v -> SMap.add x v env)
          SMap.empty f.fparams args
      in
      Some { env; cur = f.fbody; k = Kstop; genv }

(* Stream the same state [pp_core] prints — tagged per constructor so the
   stream is injective on the syntax — without building the string. CImp
   cores are rehashed on every object-code step of the exploration
   engines, so this is hot. *)
let rec hash_expr st = function
  | Eint n ->
    Hashx.char st 'i';
    Hashx.int st n
  | Evar x ->
    Hashx.char st 'v';
    Hashx.string st x
  | Eglob g ->
    Hashx.char st 'g';
    Hashx.string st g
  | Ebinop (op, a, b) ->
    Hashx.char st 'b';
    Hashx.int st (Hashtbl.hash op);
    hash_expr st a;
    hash_expr st b
  | Eunop (op, a) ->
    Hashx.char st 'u';
    Hashx.int st (Hashtbl.hash op);
    hash_expr st a

let rec hash_stmt st = function
  | Sskip -> Hashx.char st '0'
  | Sassign (x, e) ->
    Hashx.char st '1';
    Hashx.string st x;
    hash_expr st e
  | Sload (x, e) ->
    Hashx.char st '2';
    Hashx.string st x;
    hash_expr st e
  | Sstore (e1, e2) ->
    Hashx.char st '3';
    hash_expr st e1;
    hash_expr st e2
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
  | Satomic s ->
    Hashx.char st '7';
    hash_stmt st s
  | Sassert e ->
    Hashx.char st '8';
    hash_expr st e
  | Sprint e ->
    Hashx.char st 'P';
    hash_expr st e
  | Sreturn None -> Hashx.char st '9'
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
  | Kendatom k ->
    Hashx.char st '>';
    hash_kont st k

let hash_core st c =
  SMap.iter
    (fun x v ->
      Hashx.string st x;
      Hashx.char st '=';
      Hashx.int st (Value.hash v))
    c.env;
  Hashx.char st '|';
  hash_stmt st c.cur;
  Hashx.char st '|';
  hash_kont st c.k

let hash_fundef st (p : program) name =
  match List.find_opt (fun f -> String.equal f.fname name) p.funcs with
  | None -> ()
  | Some f -> Hashx.value st f

let lang : (program, core) Lang.t =
  {
    name = "CImp";
    init_core;
    step;
    after_external =
      (* CImp makes no cross-module calls, so the only external to resume
         from is the built-in [print] (ret = None); [step] has already
         installed the continuation core. *)
      (fun c ret -> match ret with None -> Some c | Some _ -> None);
    hash_core;
    hash_fundef;
    pp_core;
    globals_of = (fun p -> p.globals);
    defs_of =
      (fun p ->
        List.map (fun f -> (f.fname, List.length f.fparams)) p.funcs);
  }

(* ------------------------------------------------------------------ *)
(* The abstract lock specification γ_lock of Fig. 10(a)                *)
(* ------------------------------------------------------------------ *)

(** [gamma_lock ~lock_var] is the CImp module implementing the abstract
    lock specification over global [lock_var] (initially 1 = free). *)
let gamma_lock ?(lock_var = "L") () : program =
  let l = Eglob lock_var in
  {
    globals = [ Genv.gvar ~perm:Perm.Object ~init:[ Genv.Iint 1 ] lock_var 1 ];
    funcs =
      [
        {
          fname = "lock";
          fparams = [];
          fbody =
            Sseq
              ( Sassign ("r", Eint 0),
                Sseq
                  ( Swhile
                      ( Ebinop (Ops.Oeq, Evar "r", Eint 0),
                        Satomic
                          (Sseq (Sload ("r", l), Sstore (l, Eint 0))) ),
                    Sreturn None ) );
        };
        {
          fname = "unlock";
          fparams = [];
          fbody =
            Sseq
              ( Satomic
                  (Sseq
                     ( Sload ("r", l),
                       Sseq
                         ( Sassert (Ebinop (Ops.Oeq, Evar "r", Eint 0)),
                           Sstore (l, Eint 1) ) )),
                Sreturn None );
        };
      ];
  }
