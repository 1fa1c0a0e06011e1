(** Hand-written lexer shared by the mini-C (Clight) and CImp parsers. *)

type token =
  | INT of int
  | IDENT of string
  | KW of string  (** keywords: int void if else while return object atomic assert reg *)
  | PUNCT of string
  | EOF

type pos = { pline : int; pcol : int }

type t = {
  src : string;
  mutable off : int;
  mutable line : int;
  mutable bol : int;  (** offset of beginning of current line *)
  mutable peeked : (token * pos) option;
}

exception Error of string * pos

let create src = { src; off = 0; line = 1; bol = 0; peeked = None }

let pos_of lx = { pline = lx.line; pcol = lx.off - lx.bol + 1 }

let error lx fmt = Fmt.kstr (fun s -> raise (Error (s, pos_of lx))) fmt

let pp_pos ppf p = Fmt.pf ppf "line %d, column %d" p.pline p.pcol

let pp_token ppf = function
  | INT n -> Fmt.pf ppf "integer %d" n
  | IDENT s -> Fmt.pf ppf "identifier %s" s
  | KW s -> Fmt.pf ppf "keyword %s" s
  | PUNCT s -> Fmt.pf ppf "'%s'" s
  | EOF -> Fmt.string ppf "end of input"

let is_digit c = c >= '0' && c <= '9'
let is_alpha c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_alnum c = is_alpha c || is_digit c

let rec skip_ws lx =
  if lx.off >= String.length lx.src then ()
  else
    match lx.src.[lx.off] with
    | ' ' | '\t' | '\r' ->
      lx.off <- lx.off + 1;
      skip_ws lx
    | '\n' ->
      lx.off <- lx.off + 1;
      lx.line <- lx.line + 1;
      lx.bol <- lx.off;
      skip_ws lx
    | '/'
      when lx.off + 1 < String.length lx.src && lx.src.[lx.off + 1] = '/' ->
      while lx.off < String.length lx.src && lx.src.[lx.off] <> '\n' do
        lx.off <- lx.off + 1
      done;
      skip_ws lx
    | '/'
      when lx.off + 1 < String.length lx.src && lx.src.[lx.off + 1] = '*' ->
      lx.off <- lx.off + 2;
      let rec close () =
        if lx.off + 1 >= String.length lx.src then error lx "unterminated comment"
        else if lx.src.[lx.off] = '*' && lx.src.[lx.off + 1] = '/' then
          lx.off <- lx.off + 2
        else begin
          if lx.src.[lx.off] = '\n' then begin
            lx.line <- lx.line + 1;
            lx.bol <- lx.off + 1
          end;
          lx.off <- lx.off + 1;
          close ()
        end
      in
      close ();
      skip_ws lx
    | _ -> ()

let is_keyword = function
  | "int" | "void" | "if" | "else" | "while" | "return" | "object" | "atomic"
  | "assert" | "reg" ->
    true
  | _ -> false

(* The punctuation starting at [c], where [next] is the character after
   it ('\000' at the end of input): a two-character token when [next]
   completes one, else the one-character token; [""] when [c] starts
   none. The tokens are literals, so a token allocates nothing. *)
let punct c next =
  match c with
  | '(' -> "("
  | ')' -> ")"
  | '{' -> "{"
  | '}' -> "}"
  | '[' -> "["
  | ']' -> "]"
  | ';' -> ";"
  | ',' -> ","
  | '+' -> "+"
  | '-' -> "-"
  | '*' -> "*"
  | '/' -> "/"
  | '%' -> "%"
  | '^' -> "^"
  | '~' -> "~"
  | ':' -> if next = '=' then ":=" else ""
  | '=' -> if next = '=' then "==" else "="
  | '!' -> if next = '=' then "!=" else "!"
  | '<' -> ( match next with '=' -> "<=" | '<' -> "<<" | _ -> "<")
  | '>' -> ( match next with '=' -> ">=" | '>' -> ">>" | _ -> ">")
  | '&' -> if next = '&' then "&&" else "&"
  | '|' -> if next = '|' then "||" else "|"
  | _ -> ""

(* The value of the decimal digits [src.[start .. stop - 1]], or [-1]
   past [max_int]. *)
let decimal src start stop =
  let rec go acc i =
    if i = stop then acc
    else
      let d = Char.code (String.unsafe_get src i) - Char.code '0' in
      if acc > (max_int - d) / 10 then -1 else go ((acc * 10) + d) (i + 1)
  in
  go 0 start

let lex_one lx : token * pos =
  skip_ws lx;
  let p = pos_of lx in
  let src = lx.src in
  let n = String.length src in
  if lx.off >= n then (EOF, p)
  else
    let c = String.unsafe_get src lx.off in
    if is_digit c then begin
      let start = lx.off in
      while lx.off < n && is_digit (String.unsafe_get src lx.off) do
        lx.off <- lx.off + 1
      done;
      match decimal src start lx.off with
      | -1 -> raise (Error ("integer literal out of range", p))
      | v -> (INT v, p)
    end
    else if is_alpha c then begin
      let start = lx.off in
      while lx.off < n && is_alnum (String.unsafe_get src lx.off) do
        lx.off <- lx.off + 1
      done;
      let s = String.sub src start (lx.off - start) in
      ((if is_keyword s then KW s else IDENT s), p)
    end
    else
      let next =
        if lx.off + 1 < n then String.unsafe_get src (lx.off + 1) else '\000'
      in
      match punct c next with
      | "" -> error lx "unexpected character %C" c
      | pct ->
        lx.off <- lx.off + String.length pct;
        (PUNCT pct, p)

let peek lx : token * pos =
  match lx.peeked with
  | Some tp -> tp
  | None ->
    let tp = lex_one lx in
    lx.peeked <- Some tp;
    tp

let next lx : token * pos =
  match lx.peeked with
  | Some tp ->
    lx.peeked <- None;
    tp
  | None -> lex_one lx

let expect lx (t : token) =
  let got, p = next lx in
  if got <> t then
    raise (Error (Fmt.str "expected %a, got %a" pp_token t pp_token got, p))

let expect_punct lx s = expect lx (PUNCT s)

let accept_punct lx s =
  match peek lx with
  | PUNCT s', _ when s = s' ->
    ignore (next lx);
    true
  | _ -> false

let expect_ident lx : string =
  match next lx with
  | IDENT s, _ -> s
  | t, p -> raise (Error (Fmt.str "expected identifier, got %a" pp_token t, p))
