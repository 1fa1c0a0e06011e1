(** Recursive-descent parsers for the two source-level languages:

    - [clight]: a mini-C surface syntax for client modules. All declared
      locals parse as stack variables; the SimplLocals pass then promotes
      the never-address-taken ones to temporaries, as in CompCert.
    - [cimp]: the object language, with [atomic { ... }] blocks,
      [assert(e)], explicit loads [[e]] and stores [[e] := e]. Globals
      declared [object int x;] carry the Object permission.

    Example mini-C module:
    {[
      int x = 0;
      void inc() {
        int tmp;
        lock();
        tmp = x;
        x = x + 1;
        unlock();
        print(tmp);
      }
    ]} *)

open Cas_base
module L = Lexer

exception Error = Lexer.Error

(* ------------------------------------------------------------------ *)
(* Shared expression-parsing machinery (precedence climbing)           *)
(* ------------------------------------------------------------------ *)

(* The binary operator a punctuation token spells, with its precedence
   (higher binds tighter). Logical or/and are modelled bitwise on 0/1
   operands. *)
let binop = function
  | "||" -> Some (Ops.Oor, 1)
  | "&&" -> Some (Ops.Oand, 2)
  | "|" -> Some (Ops.Oor, 3)
  | "^" -> Some (Ops.Oxor, 4)
  | "&" -> Some (Ops.Oand, 5)
  | "==" -> Some (Ops.Oeq, 6)
  | "!=" -> Some (Ops.One, 6)
  | "<" -> Some (Ops.Olt, 7)
  | "<=" -> Some (Ops.Ole, 7)
  | ">" -> Some (Ops.Ogt, 7)
  | ">=" -> Some (Ops.Oge, 7)
  | "<<" -> Some (Ops.Oshl, 8)
  | ">>" -> Some (Ops.Oshr, 8)
  | "+" -> Some (Ops.Oadd, 9)
  | "-" -> Some (Ops.Osub, 9)
  | "*" -> Some (Ops.Omul, 10)
  | "/" -> Some (Ops.Odiv, 10)
  | "%" -> Some (Ops.Omod, 10)
  | _ -> None

let peek_binop lx =
  match L.peek lx with L.PUNCT s, _ -> binop s | _ -> None

(* generic precedence climber over an abstract expression algebra *)
type 'e alg = {
  mk_binop : Ops.binop -> 'e -> 'e -> 'e;
  mk_unop : Ops.unop -> 'e -> 'e;
  parse_atom : L.t -> 'e;
}

let rec parse_unary alg lx : 'e =
  match L.peek lx with
  | L.PUNCT "-", _ ->
    ignore (L.next lx);
    alg.mk_unop Ops.Oneg (parse_unary alg lx)
  | L.PUNCT "!", _ ->
    ignore (L.next lx);
    alg.mk_unop Ops.Olognot (parse_unary alg lx)
  | L.PUNCT "~", _ ->
    ignore (L.next lx);
    alg.mk_unop Ops.Onot (parse_unary alg lx)
  | _ -> alg.parse_atom lx

let parse_expr_prec alg lx : 'e =
  let rec climb min_prec lhs =
    match peek_binop lx with
    | Some (op, prec) when prec >= min_prec ->
      ignore (L.next lx);
      let rhs = parse_unary alg lx in
      (* left-associative: climb the rhs with higher precedence *)
      let rhs = climb_rhs (prec + 1) rhs in
      climb min_prec (alg.mk_binop op lhs rhs)
    | _ -> lhs
  and climb_rhs min_prec rhs =
    match peek_binop lx with
    | Some (op, prec) when prec >= min_prec ->
      ignore (L.next lx);
      let rhs2 = parse_unary alg lx in
      let rhs2 = climb_rhs (prec + 1) rhs2 in
      climb_rhs min_prec (alg.mk_binop op rhs rhs2)
    | _ -> rhs
  in
  let lhs = parse_unary alg lx in
  climb 1 lhs

(* ------------------------------------------------------------------ *)
(* Mini-C (Clight)                                                     *)
(* ------------------------------------------------------------------ *)

module Mini_c = struct
  type ctx = {
    params : string list;
    locals : string list;  (** declared locals (stack vars at parse time) *)
  }

  let classify ctx x : Clight.expr =
    if List.mem x ctx.params then Clight.Etemp x
    else if List.mem x ctx.locals then Clight.Evar x
    else Clight.Eglob x

  let rec alg ctx : Clight.expr alg =
    {
      mk_binop = (fun op a b -> Clight.Ebinop (op, a, b));
      mk_unop = (fun op a -> Clight.Eunop (op, a));
      parse_atom = (fun lx -> atom ctx lx);
    }

  and atom ctx lx : Clight.expr =
    match L.next lx with
    | L.INT n, _ -> Clight.Econst n
    | L.PUNCT "(", _ ->
      let e = parse_expr_prec (alg ctx) lx in
      L.expect_punct lx ")";
      e
    | L.PUNCT "*", _ -> Clight.Ederef (parse_unary (alg ctx) lx)
    | L.PUNCT "&", _ ->
      let x = L.expect_ident lx in
      Clight.Eaddrof x
    | L.IDENT x, _ -> (
      (* array indexing sugar: a[e] = *(a_addr + e) *)
      match L.peek lx with
      | L.PUNCT "[", _ ->
        ignore (L.next lx);
        let idx = parse_expr_prec (alg ctx) lx in
        L.expect_punct lx "]";
        Clight.Ederef (Clight.Ebinop (Ops.Oadd, Clight.Eaddrof x, idx))
      | _ -> classify ctx x)
    | t, p ->
      raise (Error (Fmt.str "unexpected %a in expression" L.pp_token t, p))

  let parse_expr ctx lx = parse_expr_prec (alg ctx) lx

  let rec parse_block ctx lx : Clight.stmt =
    L.expect_punct lx "{";
    let s = parse_stmts ctx lx in
    L.expect_punct lx "}";
    s

  and parse_stmts ctx lx : Clight.stmt =
    match L.peek lx with
    | L.PUNCT "}", _ -> Clight.Sskip
    | _ ->
      let s = parse_stmt ctx lx in
      let rest = parse_stmts ctx lx in
      if rest = Clight.Sskip then s else Clight.Sseq (s, rest)

  and parse_stmt ctx lx : Clight.stmt =
    match L.peek lx with
    | L.KW "if", _ ->
      ignore (L.next lx);
      L.expect_punct lx "(";
      let e = parse_expr ctx lx in
      L.expect_punct lx ")";
      let s1 = parse_block ctx lx in
      let s2 =
        match L.peek lx with
        | L.KW "else", _ ->
          ignore (L.next lx);
          parse_block ctx lx
        | _ -> Clight.Sskip
      in
      Clight.Sif (e, s1, s2)
    | L.KW "while", _ ->
      ignore (L.next lx);
      L.expect_punct lx "(";
      let e = parse_expr ctx lx in
      L.expect_punct lx ")";
      Clight.Swhile (e, parse_block ctx lx)
    | L.KW "return", _ -> (
      ignore (L.next lx);
      if L.accept_punct lx ";" then Clight.Sreturn None
      else
        match L.peek lx with
        | L.IDENT f, _ when is_call lx ->
          (* return f(args); — sugar that the Tailcall pass recognizes *)
          ignore (L.next lx);
          L.expect_punct lx "(";
          let args = parse_args ctx lx in
          L.expect_punct lx ";";
          Clight.Sseq
            ( Clight.Scall (Some "$ret", f, args),
              Clight.Sreturn (Some (Clight.Etemp "$ret")) )
        | _ ->
          let e = parse_expr ctx lx in
          L.expect_punct lx ";";
          Clight.Sreturn (Some e))
    | L.PUNCT "{", _ -> parse_block ctx lx
    | L.PUNCT "*", _ ->
      ignore (L.next lx);
      let addr = parse_unary (alg ctx) lx in
      L.expect_punct lx "=";
      let e = parse_expr ctx lx in
      L.expect_punct lx ";";
      Clight.Sassign (Clight.Lderef addr, e)
    | L.IDENT x, _ -> (
      ignore (L.next lx);
      match L.peek lx with
      | L.PUNCT "(", _ ->
        ignore (L.next lx);
        let args = parse_args ctx lx in
        L.expect_punct lx ";";
        Clight.Scall (None, x, args)
      | L.PUNCT "[", _ ->
        (* a[e] = e'; *)
        ignore (L.next lx);
        let idx = parse_expr ctx lx in
        L.expect_punct lx "]";
        L.expect_punct lx "=";
        let e = parse_expr ctx lx in
        L.expect_punct lx ";";
        Clight.Sassign
          ( Clight.Lderef (Clight.Ebinop (Ops.Oadd, Clight.Eaddrof x, idx)),
            e )
      | L.PUNCT "=", _ -> (
        ignore (L.next lx);
        (* call-with-result or plain assignment *)
        match L.peek lx with
        | L.IDENT f, _ when is_call lx ->
          ignore (L.next lx);
          L.expect_punct lx "(";
          let args = parse_args ctx lx in
          L.expect_punct lx ";";
          (* results always land in temps/params or locals *)
          if List.mem x ctx.params then Clight.Scall (Some x, f, args)
          else if List.mem x ctx.locals then
            (* store the call result into the stack var via a temp *)
            Clight.Sseq
              ( Clight.Scall (Some ("$" ^ x), f, args),
                Clight.Sassign (Clight.Lvar x, Clight.Etemp ("$" ^ x)) )
          else
            Clight.Sseq
              ( Clight.Scall (Some ("$" ^ x), f, args),
                Clight.Sassign (Clight.Lglob x, Clight.Etemp ("$" ^ x)) )
        | _ ->
          let e = parse_expr ctx lx in
          L.expect_punct lx ";";
          if List.mem x ctx.params then Clight.Sset (x, e)
          else if List.mem x ctx.locals then Clight.Sassign (Clight.Lvar x, e)
          else Clight.Sassign (Clight.Lglob x, e))
      | t, p ->
        raise (Error (Fmt.str "unexpected %a after identifier" L.pp_token t, p))
      )
    | t, p -> raise (Error (Fmt.str "unexpected %a in statement" L.pp_token t, p))

  and is_call lx =
    (* lookahead: IDENT already peeked; need to know if '(' follows. We
       re-lex from a saved lexer state. *)
    let saved_off = lx.L.off and saved_line = lx.L.line and saved_bol = lx.L.bol in
    let saved_peek = lx.L.peeked in
    ignore (L.next lx);
    let result = match L.peek lx with L.PUNCT "(", _ -> true | _ -> false in
    lx.L.off <- saved_off;
    lx.L.line <- saved_line;
    lx.L.bol <- saved_bol;
    lx.L.peeked <- saved_peek;
    result

  and parse_args ctx lx : Clight.expr list =
    if L.accept_punct lx ")" then []
    else
      let rec go acc =
        let e = parse_expr ctx lx in
        if L.accept_punct lx "," then go (e :: acc)
        else begin
          L.expect_punct lx ")";
          List.rev (e :: acc)
        end
      in
      go []

  let parse_locals lx : (string * int) list =
    let rec go acc =
      match L.peek lx with
      | L.KW "int", _ ->
        ignore (L.next lx);
        let x = L.expect_ident lx in
        let size =
          if L.accept_punct lx "[" then begin
            match L.next lx with
            | L.INT n, _ ->
              L.expect_punct lx "]";
              n
            | t, p ->
              raise (Error (Fmt.str "expected array size, got %a" L.pp_token t, p))
          end
          else 1
        in
        L.expect_punct lx ";";
        go ((x, size) :: acc)
      | _ -> List.rev acc
    in
    go []

  let parse_program (src : string) : Clight.program =
    let lx = L.create src in
    let funcs = ref [] and globals = ref [] in
    let rec decls () =
      match L.peek lx with
      | L.EOF, _ -> ()
      | L.KW "object", _ ->
        ignore (L.next lx);
        L.expect lx (L.KW "int");
        let x = L.expect_ident lx in
        let init = if L.accept_punct lx "=" then
            match L.next lx with
            | L.INT n, _ -> [ Genv.Iint n ]
            | t, p -> raise (Error (Fmt.str "expected integer, got %a" L.pp_token t, p))
          else []
        in
        L.expect_punct lx ";";
        globals := Genv.gvar ~perm:Perm.Object ~init x 1 :: !globals;
        decls ()
      | L.KW kw, _ when kw = "int" || kw = "void" ->
        ignore (L.next lx);
        let name = L.expect_ident lx in
        if L.accept_punct lx "(" then begin
          (* function *)
          let params =
            if L.accept_punct lx ")" then []
            else
              let rec go acc =
                L.expect lx (L.KW "int");
                let p = L.expect_ident lx in
                if L.accept_punct lx "," then go (p :: acc)
                else begin
                  L.expect_punct lx ")";
                  List.rev (p :: acc)
                end
              in
              go []
          in
          L.expect_punct lx "{";
          let locals = parse_locals lx in
          let ctx = { params; locals = List.map fst locals } in
          let body = parse_stmts ctx lx in
          L.expect_punct lx "}";
          funcs :=
            { Clight.fname = name; fparams = params; fvars = locals; fbody = body }
            :: !funcs;
          decls ()
        end
        else begin
          (* global scalar or array *)
          let size, init =
            if L.accept_punct lx "[" then begin
              match L.next lx with
              | L.INT n, _ ->
                L.expect_punct lx "]";
                (n, [])
              | t, p ->
                raise
                  (Error (Fmt.str "expected array size, got %a" L.pp_token t, p))
            end
            else if L.accept_punct lx "=" then
              match L.next lx with
              | L.INT n, _ -> (1, [ Genv.Iint n ])
              | L.PUNCT "-", _ -> (
                match L.next lx with
                | L.INT n, _ -> (1, [ Genv.Iint (-n) ])
                | t, p ->
                  raise
                    (Error (Fmt.str "expected integer, got %a" L.pp_token t, p)))
              | t, p ->
                raise (Error (Fmt.str "expected integer, got %a" L.pp_token t, p))
            else (1, [])
          in
          L.expect_punct lx ";";
          globals := Genv.gvar ~init name size :: !globals;
          decls ()
        end
      | t, p ->
        raise (Error (Fmt.str "unexpected %a at top level" L.pp_token t, p))
    in
    decls ();
    { Clight.funcs = List.rev !funcs; globals = List.rev !globals }
end

(* ------------------------------------------------------------------ *)
(* CImp                                                                *)
(* ------------------------------------------------------------------ *)

module Cimp_parser = struct
  (* In CImp, bare identifiers are registers unless declared as globals;
     globals appear as addresses. We resolve against the declared global
     set. *)
  type ctx = { globals : string list }

  let rec alg ctx : Cimp.expr alg =
    {
      mk_binop = (fun op a b -> Cimp.Ebinop (op, a, b));
      mk_unop = (fun op a -> Cimp.Eunop (op, a));
      parse_atom = (fun lx -> atom ctx lx);
    }

  and atom ctx lx : Cimp.expr =
    match L.next lx with
    | L.INT n, _ -> Cimp.Eint n
    | L.PUNCT "(", _ ->
      let e = parse_expr_prec (alg ctx) lx in
      L.expect_punct lx ")";
      e
    | L.IDENT x, _ ->
      if List.mem x ctx.globals then Cimp.Eglob x else Cimp.Evar x
    | t, p ->
      raise (Error (Fmt.str "unexpected %a in CImp expression" L.pp_token t, p))

  let parse_expr ctx lx = parse_expr_prec (alg ctx) lx

  let rec parse_block ctx lx : Cimp.stmt =
    L.expect_punct lx "{";
    let s = parse_stmts ctx lx in
    L.expect_punct lx "}";
    s

  and parse_stmts ctx lx : Cimp.stmt =
    match L.peek lx with
    | L.PUNCT "}", _ -> Cimp.Sskip
    | _ ->
      let s = parse_stmt ctx lx in
      let rest = parse_stmts ctx lx in
      if rest = Cimp.Sskip then s else Cimp.Sseq (s, rest)

  and parse_stmt ctx lx : Cimp.stmt =
    match L.peek lx with
    | L.KW "atomic", _ ->
      ignore (L.next lx);
      Cimp.Satomic (parse_block ctx lx)
    | L.KW "assert", _ ->
      ignore (L.next lx);
      L.expect_punct lx "(";
      let e = parse_expr ctx lx in
      L.expect_punct lx ")";
      L.expect_punct lx ";";
      Cimp.Sassert e
    | L.KW "if", _ ->
      ignore (L.next lx);
      L.expect_punct lx "(";
      let e = parse_expr ctx lx in
      L.expect_punct lx ")";
      let s1 = parse_block ctx lx in
      let s2 =
        match L.peek lx with
        | L.KW "else", _ ->
          ignore (L.next lx);
          parse_block ctx lx
        | _ -> Cimp.Sskip
      in
      Cimp.Sif (e, s1, s2)
    | L.KW "while", _ ->
      ignore (L.next lx);
      L.expect_punct lx "(";
      let e = parse_expr ctx lx in
      L.expect_punct lx ")";
      Cimp.Swhile (e, parse_block ctx lx)
    | L.KW "return", _ ->
      ignore (L.next lx);
      if L.accept_punct lx ";" then Cimp.Sreturn None
      else begin
        let e = parse_expr ctx lx in
        L.expect_punct lx ";";
        Cimp.Sreturn (Some e)
      end
    | L.PUNCT "[", _ ->
      (* [e] := e; *)
      ignore (L.next lx);
      let addr = parse_expr ctx lx in
      L.expect_punct lx "]";
      L.expect_punct lx ":=";
      let e = parse_expr ctx lx in
      L.expect_punct lx ";";
      Cimp.Sstore (addr, e)
    | L.IDENT x, _ -> (
      ignore (L.next lx);
      if x = "print" && L.accept_punct lx "(" then begin
        (* print(e); — the built-in observable output, as in mini-C *)
        let e = parse_expr ctx lx in
        L.expect_punct lx ")";
        L.expect_punct lx ";";
        Cimp.Sprint e
      end
      else begin
        L.expect_punct lx ":=";
        match L.peek lx with
        | L.PUNCT "[", _ ->
          ignore (L.next lx);
          let addr = parse_expr ctx lx in
          L.expect_punct lx "]";
          L.expect_punct lx ";";
          Cimp.Sload (x, addr)
        | _ ->
          let e = parse_expr ctx lx in
          L.expect_punct lx ";";
          Cimp.Sassign (x, e)
      end)
    | t, p ->
      raise (Error (Fmt.str "unexpected %a in CImp statement" L.pp_token t, p))

  let parse_program (src : string) : Cimp.program =
    let lx = L.create src in
    let funcs = ref [] and globals = ref [] in
    let rec decls () =
      match L.peek lx with
      | L.EOF, _ -> ()
      | L.KW "object", _ ->
        ignore (L.next lx);
        L.expect lx (L.KW "int");
        let x = L.expect_ident lx in
        let init =
          if L.accept_punct lx "=" then
            match L.next lx with
            | L.INT n, _ -> [ Genv.Iint n ]
            | t, p ->
              raise (Error (Fmt.str "expected integer, got %a" L.pp_token t, p))
          else []
        in
        L.expect_punct lx ";";
        globals := Genv.gvar ~perm:Perm.Object ~init x 1 :: !globals;
        decls ()
      | L.KW kw, _ when kw = "void" || kw = "int" ->
        ignore (L.next lx);
        let name = L.expect_ident lx in
        L.expect_punct lx "(";
        let params =
          if L.accept_punct lx ")" then []
          else
            let rec go acc =
              (match L.peek lx with
              | L.KW "int", _ -> ignore (L.next lx)
              | _ -> ());
              let p = L.expect_ident lx in
              if L.accept_punct lx "," then go (p :: acc)
              else begin
                L.expect_punct lx ")";
                List.rev (p :: acc)
              end
            in
            go []
        in
        let ctx = { globals = List.map (fun g -> g.Genv.gname) !globals } in
        let body = parse_block ctx lx in
        funcs := { Cimp.fname = name; fparams = params; fbody = body } :: !funcs;
        decls ()
      | t, p ->
        raise (Error (Fmt.str "unexpected %a at CImp top level" L.pp_token t, p))
    in
    decls ();
    { Cimp.funcs = List.rev !funcs; globals = List.rev !globals }
end

(** Parse a mini-C client module. @raise Lexer.Error on syntax errors. *)
let clight = Mini_c.parse_program

(** Parse a CImp object module. @raise Lexer.Error on syntax errors. *)
let cimp = Cimp_parser.parse_program
