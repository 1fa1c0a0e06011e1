(** Cminor (and CminorSel): per-function stack frames. The per-variable
    blocks of C#minor are collapsed into a single stack block per
    activation, addressed by [Eaddr_stack] offsets (the Cminorgen pass).

    The operator-selected dialect CminorSel of Fig. 11 is folded into the
    same syntax: [Ebinop_imm] is the machine-friendly immediate form the
    Selection pass introduces. A plain Cminor program simply does not use
    it. *)

open Cas_base

module SMap = Map.Make (String)

type expr =
  | Econst of int
  | Etemp of string
  | Eaddr_global of string
  | Eaddr_stack of int  (** sp + ofs within this activation's frame *)
  | Eload of expr
  | Ebinop of Ops.binop * expr * expr
  | Ebinop_imm of Ops.binop * expr * int  (** CminorSel selected form *)
  | Eunop of Ops.unop * expr

type stmt =
  | Sskip
  | Sset of string * expr
  | Sstore of expr * expr
  | Scall of string option * string * expr list
  | Sseq of stmt * stmt
  | Sif of expr * stmt * stmt
  | Swhile of expr * stmt
  | Sreturn of expr option

type func = {
  fname : string;
  fparams : string list;
  stacksize : int;  (** frame cells; 0 means no frame block is allocated *)
  fbody : stmt;
}

type program = { funcs : func list; globals : Genv.gvar list }

let rec pp_expr ppf = function
  | Econst n -> Fmt.int ppf n
  | Etemp x -> Fmt.string ppf x
  | Eaddr_global x -> Fmt.pf ppf "&&%s" x
  | Eaddr_stack ofs -> Fmt.pf ppf "sp+%d" ofs
  | Eload e -> Fmt.pf ppf "[%a]" pp_expr e
  | Ebinop (op, a, b) ->
    Fmt.pf ppf "(%a %a %a)" pp_expr a Ops.pp_binop op pp_expr b
  | Ebinop_imm (op, a, n) ->
    Fmt.pf ppf "(%a %a# %d)" pp_expr a Ops.pp_binop op n
  | Eunop (op, a) -> Fmt.pf ppf "(%a%a)" Ops.pp_unop op pp_expr a

let rec pp_stmt ppf = function
  | Sskip -> Fmt.string ppf "skip"
  | Sset (x, e) -> Fmt.pf ppf "%s = %a" x pp_expr e
  | Sstore (e1, e2) -> Fmt.pf ppf "[%a] = %a" pp_expr e1 pp_expr e2
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

type kont = Kstop | Kseq of stmt * kont | Kwhile of expr * stmt * kont

type core = {
  fn : func;
  sp : int option;  (** stack block, once allocated *)
  temps : Value.t SMap.t;
  need_frame : bool;
  cur : stmt;
  k : kont;
  waiting : string option option;
  genv : Genv.t;
}

let rec pp_kont ppf = function
  | Kstop -> Fmt.string ppf "."
  | Kseq (s, k) -> Fmt.pf ppf "%a;; %a" pp_stmt s pp_kont k
  | Kwhile (e, s, k) ->
    Fmt.pf ppf "loop(%a,%a);; %a" pp_expr e pp_stmt s pp_kont k

let pp_core ppf c =
  Fmt.pf ppf "{%s sp=%a [%a] %a | %a%s}" c.fn.fname
    Fmt.(option ~none:(any "-") int)
    c.sp
    Fmt.(list ~sep:comma (fun ppf (x, v) -> Fmt.pf ppf "%s=%a" x Value.pp v))
    (SMap.bindings c.temps) pp_stmt c.cur pp_kont c.k
    (match c.waiting with None -> "" | Some _ -> " <waiting>")

exception Fault

let eval c m e : Value.t * Footprint.t =
  let fp = ref Footprint.empty in
  let rec go = function
    | Econst n -> Value.Vint n
    | Etemp x -> Option.value ~default:Value.Vundef (SMap.find_opt x c.temps)
    | Eaddr_global x -> (
      match Genv.find_addr c.genv x with
      | Some a -> Value.Vptr a
      | None -> raise Fault)
    | Eaddr_stack ofs -> (
      match c.sp with
      | Some b -> Value.Vptr (Addr.make b ofs)
      | None -> raise Fault)
    | Eload e -> (
      match go e with
      | Value.Vptr a -> (
        match Memory.load m a with
        | Ok v ->
          fp := Footprint.union !fp (Footprint.read1 a);
          v
        | Error _ -> raise Fault)
      | _ -> raise Fault)
    | Ebinop (op, a, b) ->
      let va = go a in
      let vb = go b in
      Ops.eval_binop op va vb
    | Ebinop_imm (op, a, n) -> Ops.eval_binop op (go a) (Value.Vint n)
    | Eunop (op, a) -> Ops.eval_unop op (go a)
  in
  let v = go e in
  (v, !fp)

let step (fl : Flist.t) (c : core) (m : Memory.t) : core Lang.succ list =
  if c.waiting <> None then []
  else if c.need_frame then
    let m', b, fp = Memory.alloc m fl ~size:c.fn.stacksize ~perm:Perm.Normal in
    [ Lang.Next (Msg.Tau, fp, { c with need_frame = false; sp = Some b }, m') ]
  else
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
      | Sstore (e1, e2), k -> (
        let va, fp1 = eval c m e1 in
        let v, fp2 = eval c m e2 in
        match va with
        | Value.Vptr a -> (
          match Memory.store m a v with
          | Ok m' ->
            let fp =
              Footprint.union (Footprint.union fp1 fp2) (Footprint.write1 a)
            in
            tau ~fp ~m:m' Sskip k c.temps
          | Error _ -> [ Lang.Stuck_abort ])
        | _ -> [ Lang.Stuck_abort ])
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
    with Fault -> [ Lang.Stuck_abort ]

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
          sp = None;
          temps;
          need_frame = f.stacksize > 0;
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
      | Some x -> SMap.add x (Option.value ~default:(Value.Vint 0) ret) c.temps
    in
    Some { c with temps; waiting = None }

let hash_fundef st (p : program) name =
  match List.find_opt (fun f -> String.equal f.fname name) p.funcs with
  | None -> ()
  | Some f -> Hashx.value st f

let lang : (program, core) Lang.t =
  {
    name = "Cminor";
    init_core;
    step;
    after_external;
    hash_core = Lang.hash_printed pp_core;
    hash_fundef;
    pp_core;
    globals_of = (fun p -> p.globals);
    defs_of =
      (fun p ->
        List.map (fun f -> (f.fname, List.length f.fparams)) p.funcs);
  }

(** The CminorSel instantiation: identical semantics, distinct language
    name so simulation reports distinguish the pipeline stages. *)
let sel_lang : (program, core) Lang.t = { lang with name = "CminorSel" }
