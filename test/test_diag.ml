(** Tests for the counterexample-engineering library ([Cas_diag]):
    the hand-rolled JSON codec, witness serialization round-trips
    (including a randomized property), capture → serialize → deserialize
    → replay on the racy corpus, deterministic witness selection across
    engines and job counts, schedule shrinking, and the TSO capture path
    (refinement traces and aborts, with flush points). *)

open Cas_base
open Cas_langs
open Cas_diag

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int
let tstr = Alcotest.string

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

(* replace the first occurrence of [sub] in [s] with [by] *)
let replace_once ~sub ~by s =
  let n = String.length sub and m = String.length s in
  let rec go i =
    if i + n > m then s
    else if String.sub s i n = sub then
      String.sub s 0 i ^ by ^ String.sub s (i + n) (m - i - n)
    else go (i + 1)
  in
  go 0

let world_of p =
  match Cas_conc.World.load p ~args:[] with
  | Ok w -> w
  | Error e -> Alcotest.failf "load: %a" Cas_conc.World.pp_load_error e

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

let test_json_atoms () =
  check tbool "null" true (Json.parse "null" = Ok Json.Null);
  check tbool "true" true (Json.parse "true" = Ok (Json.Bool true));
  check tbool "int" true (Json.parse "-42" = Ok (Json.Int (-42)));
  check tbool "string" true (Json.parse {|"hi"|} = Ok (Json.Str "hi"));
  check tbool "empty list" true (Json.parse "[]" = Ok (Json.List []));
  check tbool "empty obj" true (Json.parse "{}" = Ok (Json.Obj []))

let test_json_nested_roundtrip () =
  let doc =
    Json.Obj
      [
        ("a", Json.List [ Json.Int 1; Json.Str "x\"y\\z"; Json.Null ]);
        ("b", Json.Obj [ ("nested", Json.Bool false) ]);
        ("c", Json.Str "line\nbreak\ttab\001ctl");
      ]
  in
  check tbool "print/parse round trip" true
    (Json.parse (Json.to_string doc) = Ok doc)

let test_json_rejects () =
  let bad s =
    match Json.parse s with Ok _ -> false | Error _ -> true
  in
  check tbool "trailing garbage" true (bad "1 2");
  check tbool "unterminated string" true (bad {|"abc|});
  check tbool "bad escape" true (bad {|"\q"|});
  check tbool "missing colon" true (bad {|{"a" 1}|});
  check tbool "bare word" true (bad "flase")

(* the hardened entry point: typed errors, size and depth limits *)
let test_json_parse_result_limits () =
  let deep k = String.make k '[' ^ String.make k ']' in
  (* k brackets recurse to depth k-1, so the limit trips at limit+2 *)
  (match Json.parse_result ~max_depth:16 (deep 18) with
  | Error (Json.Too_deep { limit }) -> check tint "depth limit named" 16 limit
  | _ -> Alcotest.fail "expected Too_deep");
  check tbool "depth just inside the limit parses" true
    (match Json.parse_result ~max_depth:16 (deep 17) with
    | Ok _ -> true
    | Error _ -> false);
  (match Json.parse_result ~max_size:8 "[1,2,3,4,5]" with
  | Error (Json.Too_large { size; limit }) ->
    check tint "size reported" 11 size;
    check tint "limit reported" 8 limit
  | _ -> Alcotest.fail "expected Too_large");
  match Json.parse_result "[1] junk" with
  | Error (Json.Syntax { offset; msg }) ->
    check tbool "offset points past the value" true (offset >= 3);
    check tstr "trailing garbage named" "trailing garbage" msg
  | _ -> Alcotest.fail "expected Syntax"

let test_json_parse_result_adversarial () =
  let syntax s =
    match Json.parse_result s with
    | Error (Json.Syntax _) -> true
    | _ -> false
  in
  check tbool "unterminated string" true (syntax {|"abc|});
  check tbool "truncated unicode escape" true (syntax {|"\u00|});
  check tbool "non-latin1 escape" true (syntax "\"\\u2603\"");
  check tbool "number overflow" true (syntax "99999999999999999999999999");
  check tbool "lone minus" true (syntax "-");
  check tbool "NUL inside literal" true (syntax "nu\000ll");
  check tbool "deep objects also capped" true
    (match
       Json.parse_result ~max_depth:16
         (String.concat ""
            (List.init 40 (fun _ -> {|{"a":|})
            @ [ "1" ]
            @ List.init 40 (fun _ -> "}")))
     with
    | Error (Json.Too_deep _) -> true
    | _ -> false);
  (* errors render without raising *)
  check tbool "pp_parse_error total" true
    (String.length
       (Fmt.str "%a" Json.pp_parse_error
          (Json.Syntax { offset = 3; msg = "x" }))
    > 0)

(* every document we can print parses back through the hardened entry
   point to the same tree *)
let gen_json_doc =
  let open QCheck.Gen in
  sized_size (int_bound 3) (fun n ->
      fix
        (fun self n ->
          if n = 0 then
            oneof
              [
                return Json.Null;
                map (fun b -> Json.Bool b) bool;
                map (fun i -> Json.Int i) small_signed_int;
                map (fun s -> Json.Str s) (string_size (int_bound 12));
              ]
          else
            oneof
              [
                map
                  (fun l -> Json.List l)
                  (list_size (int_bound 4) (self (n - 1)));
                map
                  (fun kvs -> Json.Obj kvs)
                  (list_size (int_bound 4)
                     (pair string_printable (self (n - 1))));
              ])
        n)

let prop_json_parse_result_roundtrip =
  QCheck.Test.make ~count:300 ~name:"parse_result/to_string round trip"
    (QCheck.make gen_json_doc ~print:Json.to_string)
    (fun d -> Json.parse_result (Json.to_string d) = Ok d)

(* The codec that the table-driven printer and the in-place parser
   replaced, kept as the reference: escaping and unescaping by a walk per
   string, one [Buffer] per parsed string, [Some] per peeked byte, and
   indentation made by [String.make]. *)
module Reference = struct
  type t = Json.t =
    | Null
    | Bool of bool
    | Int of int
    | Str of string
    | List of t list
    | Obj of (string * t) list

  type parse_error = Json.parse_error =
    | Too_large of { size : int; limit : int }
    | Too_deep of { limit : int }
    | Syntax of { offset : int; msg : string }

  exception Parse_error of parse_error

  let default_max_size = Json.default_max_size
  let default_max_depth = Json.default_max_depth

  let escape b s =
    let n = String.length s in
    let flush start stop =
      if stop > start then Buffer.add_substring b s start (stop - start)
    in
    let rec go start i =
      if i >= n then flush start i
      else
        match String.unsafe_get s i with
        | '"' ->
          flush start i;
          Buffer.add_string b "\\\"";
          go (i + 1) (i + 1)
        | '\\' ->
          flush start i;
          Buffer.add_string b "\\\\";
          go (i + 1) (i + 1)
        | '\n' ->
          flush start i;
          Buffer.add_string b "\\n";
          go (i + 1) (i + 1)
        | '\r' ->
          flush start i;
          Buffer.add_string b "\\r";
          go (i + 1) (i + 1)
        | '\t' ->
          flush start i;
          Buffer.add_string b "\\t";
          go (i + 1) (i + 1)
        | c when Char.code c < 0x20 ->
          flush start i;
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c));
          go (i + 1) (i + 1)
        | _ -> go start (i + 1)
    in
    go 0 0

  let to_buffer b (j : t) =
    let rec go ind j =
      match j with
      | Null -> Buffer.add_string b "null"
      | Bool true -> Buffer.add_string b "true"
      | Bool false -> Buffer.add_string b "false"
      | Int n -> Buffer.add_string b (string_of_int n)
      | Str s ->
        Buffer.add_char b '"';
        escape b s;
        Buffer.add_char b '"'
      | List [] -> Buffer.add_string b "[]"
      | List xs ->
        Buffer.add_string b "[";
        List.iteri
          (fun i x ->
            if i > 0 then Buffer.add_char b ',';
            Buffer.add_char b '\n';
            Buffer.add_string b (String.make (ind + 2) ' ');
            go (ind + 2) x)
          xs;
        Buffer.add_char b '\n';
        Buffer.add_string b (String.make ind ' ');
        Buffer.add_char b ']'
      | Obj [] -> Buffer.add_string b "{}"
      | Obj kvs ->
        Buffer.add_string b "{";
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char b ',';
            Buffer.add_char b '\n';
            Buffer.add_string b (String.make (ind + 2) ' ');
            Buffer.add_char b '"';
            escape b k;
            Buffer.add_string b "\": ";
            go (ind + 2) v)
          kvs;
        Buffer.add_char b '\n';
        Buffer.add_string b (String.make ind ' ');
        Buffer.add_char b '}'
    in
    go 0 j

  let to_string (j : t) : string =
    let b = Buffer.create 1024 in
    to_buffer b j;
    Buffer.contents b

  let parse_result ?(max_size = default_max_size)
      ?(max_depth = default_max_depth) (s : string) : (t, parse_error) result =
    let n = String.length s in
    if n > max_size then Error (Too_large { size = n; limit = max_size })
    else begin
    let pos = ref 0 in
    let fail msg = raise (Parse_error (Syntax { offset = !pos; msg })) in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let advance () = incr pos in
    let skip_ws () =
      while
        !pos < n
        &&
        match String.unsafe_get s !pos with
        | ' ' | '\t' | '\n' | '\r' -> true
        | _ -> false
      do
        incr pos
      done
    in
    let expect c =
      match peek () with
      | Some c' when c' = c -> advance ()
      | _ -> fail (Fmt.str "expected %C" c)
    in
    let literal word v =
      if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
      then begin
        pos := !pos + String.length word;
        v
      end
      else fail (Fmt.str "expected %s" word)
    in
    let parse_string () =
      expect '"';
      let b = Buffer.create 16 in
      (* blit maximal escape-free runs instead of walking char by char —
         same acceptance (any raw byte except '"' and '\\' passes through,
         as before), just without an option allocation per byte *)
      let plain_run () =
        let start = !pos in
        while
          !pos < n
          &&
          match String.unsafe_get s !pos with '"' | '\\' -> false | _ -> true
        do
          incr pos
        done;
        if !pos > start then Buffer.add_substring b s start (!pos - start)
      in
      let rec go () =
        plain_run ();
        match peek () with
        | None -> fail "unterminated string"
        | Some '"' -> advance ()
        | Some '\\' ->
          advance ();
          (match peek () with
          | Some '"' -> Buffer.add_char b '"'; advance ()
          | Some '\\' -> Buffer.add_char b '\\'; advance ()
          | Some '/' -> Buffer.add_char b '/'; advance ()
          | Some 'n' -> Buffer.add_char b '\n'; advance ()
          | Some 'r' -> Buffer.add_char b '\r'; advance ()
          | Some 't' -> Buffer.add_char b '\t'; advance ()
          | Some 'b' -> Buffer.add_char b '\b'; advance ()
          | Some 'f' -> Buffer.add_char b '\012'; advance ()
          | Some 'u' ->
            advance ();
            if !pos + 4 > n then fail "truncated \\u escape";
            let hex = String.sub s !pos 4 in
            pos := !pos + 4;
            (match int_of_string_opt ("0x" ^ hex) with
            | None -> fail "bad \\u escape"
            | Some code ->
              (* our own output only \u-escapes control characters; decode
                 the Latin-1 subset and reject the rest *)
              if code < 0x100 then Buffer.add_char b (Char.chr code)
              else fail "non-latin1 \\u escape")
          | _ -> fail "bad escape");
          go ()
        | Some _ -> assert false (* plain_run stops only at '"' or '\\' *)
      in
      go ();
      Buffer.contents b
    in
    let parse_int () =
      let start = !pos in
      if peek () = Some '-' then advance ();
      let rec digits () =
        match peek () with
        | Some '0' .. '9' ->
          advance ();
          digits ()
        | _ -> ()
      in
      digits ();
      if !pos = start then fail "expected number";
      match int_of_string_opt (String.sub s start (!pos - start)) with
      | Some v -> v
      | None -> fail "bad number"
    in
    let rec parse_value depth =
      skip_ws ();
      if depth > max_depth then raise (Parse_error (Too_deep { limit = max_depth }));
      match peek () with
      | None -> fail "unexpected end of input"
      | Some 'n' -> literal "null" Null
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some '"' -> Str (parse_string ())
      | Some ('-' | '0' .. '9') -> Int (parse_int ())
      | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else begin
          let rec items acc =
            let v = parse_value (depth + 1) in
            skip_ws ();
            match peek () with
            | Some ',' ->
              advance ();
              items (v :: acc)
            | Some ']' ->
              advance ();
              List.rev (v :: acc)
            | _ -> fail "expected ',' or ']'"
          in
          List (items [])
        end
      | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let rec members acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value (depth + 1) in
            skip_ws ();
            match peek () with
            | Some ',' ->
              advance ();
              members ((k, v) :: acc)
            | Some '}' ->
              advance ();
              List.rev ((k, v) :: acc)
            | _ -> fail "expected ',' or '}'"
          in
          Obj (members [])
        end
      | Some c -> fail (Fmt.str "unexpected %C" c)
    in
    try
      let v = parse_value 0 in
      skip_ws ();
      if !pos <> n then
        Error (Syntax { offset = !pos; msg = "trailing garbage" })
      else Ok v
    with Parse_error e -> Error e
    end
end

(* strings over the bytes the codec treats specially: quotes,
   backslashes, every control character, bytes >= 0x80 *)
let gen_json_string =
  let open QCheck.Gen in
  string_size
    ~gen:
      (frequency
         [
           (4, char_range 'a' 'z');
           (2, oneofl [ '"'; '\\'; '/'; ' '; 'u' ]);
           (2, map Char.chr (int_range 0 0x1f));
           (2, map Char.chr (int_range 0x80 0xff));
           (1, map Char.chr (int_range 0x20 0x7f));
         ])
    (int_bound 24)

let gen_json_tree =
  let open QCheck.Gen in
  let int =
    frequency
      [
        (3, small_signed_int);
        (2, QCheck.Gen.int);
        (1, oneofl [ 0; -1; max_int; min_int; 999_999_999_999_999_999 ]);
      ]
  in
  sized_size (int_bound 4) (fun n ->
      fix
        (fun self n ->
          if n = 0 then
            oneof
              [
                return Json.Null;
                map (fun b -> Json.Bool b) bool;
                map (fun i -> Json.Int i) int;
                map (fun s -> Json.Str s) gen_json_string;
              ]
          else
            frequency
              [
                (1, map (fun s -> Json.Str s) gen_json_string);
                ( 2,
                  map
                    (fun l -> Json.List l)
                    (list_size (int_bound 4) (self (n - 1))) );
                ( 2,
                  map
                    (fun kvs -> Json.Obj kvs)
                    (list_size (int_bound 4)
                       (pair gen_json_string (self (n - 1)))) );
              ])
        n)

let arb_json_tree = QCheck.make gen_json_tree ~print:Json.to_string

let prop_json_printer_matches_reference =
  QCheck.Test.make ~count:500 ~name:"printer matches the reference"
    arb_json_tree (fun j -> Json.to_string j = Reference.to_string j)

let prop_json_round_trip =
  QCheck.Test.make ~count:500 ~name:"parse (to_string j) = Ok j"
    arb_json_tree (fun j ->
      let s = Json.to_string j in
      Json.parse s = Ok j && Json.parse_result s = Ok j)

(* Bytes a mutation writes: JSON's punctuation, the starts of literals,
   numbers and escapes, and bytes no value starts with. *)
let json_mutation_bytes = "{}[],:\"\\/ntfrbu0159-_xAF \n\t\000\127\200\255"

(* A printed tree, then one to three deterministic damages: a byte
   replaced, inserted or deleted, or the text cut short. *)
let gen_damaged_json =
  let open QCheck.Gen in
  let damage s =
    let n = String.length s in
    int_bound 4 >>= fun kind ->
    int_bound (max 0 (n - 1)) >>= fun at ->
    map
      (fun c ->
        let c = String.make 1 c in
        let before = String.sub s 0 at in
        match kind with
        | 0 when n > 0 -> before ^ c ^ String.sub s (at + 1) (n - at - 1)
        | 1 -> before ^ c ^ String.sub s at (n - at)
        | 2 when n > 0 -> before ^ String.sub s (at + 1) (n - at - 1)
        | _ -> before)
      (oneofl
         (List.init
            (String.length json_mutation_bytes)
            (String.get json_mutation_bytes)))
  in
  gen_json_tree >>= fun j ->
  int_range 1 3 >>= fun k ->
  let rec go k s = if k = 0 then return s else damage s >>= go (k - 1) in
  go k (Json.to_string j)

let same_parse ?max_size ?max_depth s =
  Json.parse_result ?max_size ?max_depth s
  = Reference.parse_result ?max_size ?max_depth s

let prop_json_errors_match_reference =
  QCheck.Test.make ~count:2000
    ~name:"parse_result on damaged input matches the reference"
    (QCheck.make gen_damaged_json ~print:(Printf.sprintf "%S"))
    (fun s ->
      same_parse s
      && same_parse ~max_depth:2 s
      && same_parse ~max_size:(String.length s / 2) s)

(* The escapes, numbers and literals whose rejection carries an offset
   and a message, and every prefix of a document that holds them all *)
let test_json_edges_match_reference () =
  let doc =
    {|{"a": [null, true, false, -0, 007, -4611686018427387904,|}
    ^ {| "\u00e9\u001f\/\b\f\n\r\t\"\\"], "b": {}}|}
  in
  let cases =
    [
      {|"\u00_1"|}; {|"\u_001"|}; {|"\u0x12"|}; {|"\uFFFF"|}; {|"\u00E9"|};
      {|"\u1___"|}; {|"\u+123"|}; {|"\u 123"|}; {|"\u00|}; {|"\|}; {|"\q"|};
      "\"\\u00\0001\""; "-"; "--1"; "-a"; "4611686018427387903";
      "4611686018427387904"; "-4611686018427387905"; "999999999999999999";
      "1000000000000000000"; "00000000000000000000000000001"; "nul"; "nulll";
      "tru"; "fals"; "[1,]"; "{\"a\":1,}"; "{\"a\" 1}"; "{1:2}"; "[1 2]";
      "\"abc"; ""; "   "; "\000"; "\255"; "[[[[[[1]]]]]]";
    ]
  in
  List.iter
    (fun s ->
      check tbool (Printf.sprintf "%S" s) true
        (same_parse s && same_parse ~max_depth:3 s))
    (cases @ List.init (String.length doc + 1) (fun k -> String.sub doc 0 k));
  check tbool "the document parses" true (Result.is_ok (Json.parse_result doc))

(* ------------------------------------------------------------------ *)
(* Witness serialization                                                *)
(* ------------------------------------------------------------------ *)

let sample_witness () =
  Witness.make ~program:"int x = 0;\nvoid inc() { x = x + 1; }"
    ~entries:[ "inc"; "inc" ] ~with_lock:false ~semantics:Witness.Sc
    ~engine:"dpor" ~seed:7
    ~verdict:(Witness.Vrace (1, 2))
    [
      {
        Witness.s_tid = 1;
        s_event = None;
        s_reads = [ Addr.make 0 0 ];
        s_writes = [];
        s_flush = false;
        s_dst = "d1";
      };
      {
        Witness.s_tid = 2;
        s_event = Some (Event.Print 3);
        s_reads = [];
        s_writes = [ Addr.make 0 0; Addr.make 1 4 ];
        s_flush = true;
        s_dst = "";
      };
    ]

let test_witness_roundtrip () =
  let w = sample_witness () in
  check tint "two switches counted" 1 (Witness.switches w);
  check tbool "events extracted" true (Witness.events w = [ Event.Print 3 ]);
  match Witness.of_string (Witness.to_string w) with
  | Error e -> Alcotest.failf "deserialize: %s" e
  | Ok w' ->
    check tbool "round trip is identity" true (w = w');
    check tstr "hash stable" w.Witness.prog_hash w'.Witness.prog_hash

let test_witness_rejects_future_format () =
  let s = Witness.to_string (sample_witness ()) in
  let s' = replace_once ~sub:"\"format\": 1" ~by:"\"format\": 99" s in
  check tbool "format marker present in serialization" true (s <> s');
  match Witness.of_string s' with
  | Ok _ -> Alcotest.fail "format 99 accepted"
  | Error e -> check tbool "error names the format" true (contains ~sub:"99" e)

(* randomized round-trip property *)
let gen_witness =
  let open QCheck.Gen in
  let addr = map2 Addr.make (int_range 0 20) (int_range 0 8) in
  let event =
    oneof
      [
        map (fun n -> Event.Print n) small_nat;
        map (fun s -> Event.Out s) (small_string ~gen:printable);
      ]
  in
  let step =
    map
      (fun (tid, ev, rs, ws, (flush, dst)) ->
        { Witness.s_tid = tid; s_event = ev; s_reads = rs; s_writes = ws;
          s_flush = flush; s_dst = dst })
      (tup5 (int_range 1 4) (option event) (small_list addr)
         (small_list addr)
         (pair bool (small_string ~gen:printable)))
  in
  let verdict =
    oneof
      [
        map2 (fun a b -> Witness.Vrace (a, b)) (int_range 1 4) (int_range 1 4);
        return Witness.Vabort;
        map (fun es -> Witness.Vrefine es) (small_list event);
      ]
  in
  map
    (fun ((prog, entries, with_lock, sem, steps), (engine, seed, v)) ->
      Witness.make ~program:prog ~entries ~with_lock
        ~semantics:(if sem then Witness.Sc else Witness.Tso)
        ~engine ~seed ~verdict:v steps)
    (pair
       (tup5 (small_string ~gen:printable)
          (small_list (small_string ~gen:printable))
          bool bool (small_list step))
       (tup3 (small_string ~gen:printable) small_nat verdict))

let prop_witness_roundtrip =
  QCheck.Test.make ~count:200 ~name:"witness serialize/deserialize identity"
    (QCheck.make gen_witness ~print:Witness.to_string)
    (fun w -> Witness.of_string (Witness.to_string w) = Ok w)

(* ------------------------------------------------------------------ *)
(* Capture → serialize → deserialize → replay (SC)                      *)
(* ------------------------------------------------------------------ *)

let capture_witness ?(engine = Cas_mc.Engine.Dpor) ?jobs ~src ~entries p =
  let rc = Capture.race ~engine ?jobs (world_of p) in
  match rc.Capture.rc_verdict with
  | None -> Alcotest.fail "expected a race capture"
  | Some v ->
    Witness.make ~program:src ~entries ~with_lock:false
      ~semantics:Witness.Sc
      ~engine:(Cas_mc.Engine.to_string engine)
      ~seed:0 ~verdict:v rc.Capture.rc_steps

let roundtrip w =
  match Witness.of_string (Witness.to_string w) with
  | Ok w' -> w'
  | Error e -> Alcotest.failf "round trip: %s" e

let test_capture_replay_racy engine () =
  let wit =
    capture_witness ~engine ~src:Corpus.racy_counter_src
      ~entries:[ "inc"; "inc" ]
      (Corpus.racy_prog ())
  in
  check tbool "schedule nonempty" true (wit.Witness.steps <> []);
  let wit = roundtrip wit in
  let o = Replay.run (Sem.sc (world_of (Corpus.racy_prog ()))) wit in
  check tbool (Fmt.str "strict replay ok (%s)" o.Replay.detail) true
    o.Replay.ok;
  check tbool "verdict reached" true o.Replay.verdict_reached;
  check tint "all steps matched"
    (List.length wit.Witness.steps)
    o.Replay.steps_matched

let test_capture_replay_observer () =
  let wit =
    capture_witness ~engine:Cas_mc.Engine.Naive
      ~src:Corpus.racy_observer_writer_src
      ~entries:[ "writer"; "reader" ]
      (Corpus.observer_prog ())
  in
  let o =
    Replay.run (Sem.sc (world_of (Corpus.observer_prog ()))) (roundtrip wit)
  in
  check tbool (Fmt.str "replay ok (%s)" o.Replay.detail) true o.Replay.ok

let test_capture_drf_program () =
  let rc = Capture.race ~engine:Cas_mc.Engine.Dpor (world_of (Corpus.lock_counter_prog ())) in
  check tbool "no verdict on a DRF program" true (rc.Capture.rc_verdict = None);
  check tbool "no schedule either" true (rc.Capture.rc_steps = []);
  check tbool "report says DRF" true rc.Capture.rc_report.Cas_conc.Race.drf

let test_replay_detects_tampering () =
  let wit =
    capture_witness ~src:Corpus.racy_counter_src ~entries:[ "inc"; "inc" ]
      (Corpus.racy_prog ())
  in
  (* flip every scheduled thread to one that cannot reproduce the steps *)
  let tampered =
    {
      wit with
      Witness.steps =
        List.map
          (fun (s : Witness.step) -> { s with Witness.s_tid = 9 })
          wit.Witness.steps;
    }
  in
  let o = Replay.run (Sem.sc (world_of (Corpus.racy_prog ()))) tampered in
  check tbool "tampered schedule rejected" false o.Replay.ok

(* ------------------------------------------------------------------ *)
(* Deterministic witness selection (satellite 1)                        *)
(* ------------------------------------------------------------------ *)

let test_witness_deterministic_across_engines () =
  let drf e jobs =
    Cas_conc.Race.drf ~engine:e ?jobs (world_of (Corpus.racy_prog ()))
  in
  let r1 = drf Cas_mc.Engine.Dpor None in
  let r2 = drf Cas_mc.Engine.Dpor_par (Some 3) in
  let fp r =
    match r.Cas_conc.Race.witness_world with
    | Some w -> Cas_conc.World.fingerprint_nocur w
    | None -> Alcotest.fail "expected a racy world"
  in
  check tbool "same witness tuple" true
    (r1.Cas_conc.Race.witness = r2.Cas_conc.Race.witness);
  check tstr "same racy world" (fp r1) (fp r2)

let test_capture_deterministic () =
  let cap () =
    (Capture.race ~engine:Cas_mc.Engine.Dpor (world_of (Corpus.racy_prog ())))
      .Capture.rc_steps
  in
  check tbool "identical schedule on re-capture" true (cap () = cap ())

(* ------------------------------------------------------------------ *)
(* Shrinking                                                           *)
(* ------------------------------------------------------------------ *)

let test_shrink_preserves_verdict () =
  let wit =
    capture_witness ~src:Corpus.racy_counter_src ~entries:[ "inc"; "inc" ]
      (Corpus.racy_prog ())
  in
  let s0 () = Sem.sc (world_of (Corpus.racy_prog ())) in
  let r = Shrink.shrink (s0 ()) wit in
  check tbool "switches never increase" true
    (r.Shrink.sh_min_switches <= r.Shrink.sh_orig_switches);
  check tbool "steps never increase" true
    (r.Shrink.sh_min_steps <= r.Shrink.sh_orig_steps);
  check tbool "verdict preserved" true
    (r.Shrink.sh_witness.Witness.verdict = wit.Witness.verdict);
  let o = Replay.run (s0 ()) r.Shrink.sh_witness in
  check tbool
    (Fmt.str "shrunk witness strict-replays (%s)" o.Replay.detail)
    true o.Replay.ok

let test_shrink_drops_padding () =
  (* pad the schedule with a stutter of the first thread's prefix steps
     duplicated as unmatched noise: shrinking must fall back cleanly and
     the result must still replay *)
  let wit =
    capture_witness ~src:Corpus.racy_counter_src ~entries:[ "inc"; "inc" ]
      (Corpus.racy_prog ())
  in
  let padded = { wit with Witness.steps = wit.Witness.steps @ wit.Witness.steps } in
  let s0 () = Sem.sc (world_of (Corpus.racy_prog ())) in
  let r = Shrink.shrink (s0 ()) padded in
  check tbool "padding removed" true
    (r.Shrink.sh_min_steps <= List.length wit.Witness.steps);
  let o = Replay.run (s0 ()) r.Shrink.sh_witness in
  check tbool "still replays" true o.Replay.ok

(* ------------------------------------------------------------------ *)
(* TSO capture: refinement traces and aborts                            *)
(* ------------------------------------------------------------------ *)

(** The SB litmus test (x=1; r1=y ∥ y=1; r2=x), unfenced: both threads
    printing 0 is TSO-only behaviour — the canonical refinement failure. *)
let sb_module : Asm.program =
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
      [ Genv.gvar ~init:[ Genv.Iint 0 ] "x" 1; Genv.gvar ~init:[ Genv.Iint 0 ] "y" 1 ];
  }

let tso_world modules entries =
  match Cas_tso.Tso.load modules entries with
  | Ok w -> w
  | Error e -> Alcotest.failf "TSO load: %a" Cas_conc.World.pp_load_error e

let test_tso_refine_capture_and_replay () =
  let target = [ Event.Print 0; Event.Print 0 ] in
  let s0 () = Sem.tso (tso_world [ sb_module ] [ "t1"; "t2" ]) in
  match Capture.schedule_for_events (s0 ()) ~events:target () with
  | None -> Alcotest.fail "no schedule for the TSO-only trace"
  | Some steps ->
    check tbool "schedule crosses a flush" true
      (List.exists (fun (s : Witness.step) -> s.Witness.s_flush) steps);
    let wit =
      Witness.make ~program:"(hand-written sb litmus)" ~entries:[ "t1"; "t2" ]
        ~with_lock:false ~semantics:Witness.Tso ~engine:"search" ~seed:0
        ~verdict:(Witness.Vrefine target) steps
    in
    let o = Replay.run (s0 ()) (roundtrip wit) in
    check tbool (Fmt.str "TSO replay ok (%s)" o.Replay.detail) true o.Replay.ok;
    check tbool "exact event trace" true (o.Replay.events = target)

let snoop_client : Asm.program =
  {
    Asm.funcs =
      [
        {
          Asm.fname = "snoop";
          arity = 0;
          framesize = 0;
          is_object = false;
          code =
            [
              Asm.Plea_global (Mreg.CX, "L");
              Asm.Pload (Mreg.AX, Mreg.CX, 0);
              Asm.Pret false;
            ];
        };
      ];
    globals = [];
  }

let test_tso_abort_capture_and_replay () =
  let s0 () =
    Sem.tso (tso_world [ snoop_client; Cas_tso.Locks.pi_lock ] [ "snoop" ])
  in
  match Capture.schedule_to_abort (s0 ()) () with
  | None -> Alcotest.fail "confinement abort not found"
  | Some steps ->
    let wit =
      Witness.make ~program:"(snoop client)" ~entries:[ "snoop" ]
        ~with_lock:false ~semantics:Witness.Tso ~engine:"search" ~seed:0
        ~verdict:Witness.Vabort steps
    in
    let o = Replay.run (s0 ()) (roundtrip wit) in
    check tbool (Fmt.str "abort replay ok (%s)" o.Replay.detail) true
      o.Replay.ok

(* ------------------------------------------------------------------ *)
(* Export                                                              *)
(* ------------------------------------------------------------------ *)

let test_chrome_export_wellformed () =
  let wit =
    capture_witness ~src:Corpus.racy_counter_src ~entries:[ "inc"; "inc" ]
      (Corpus.racy_prog ())
  in
  let doc = Export.chrome wit in
  (* the export itself must be valid JSON for our own parser *)
  match Json.parse (Json.to_string doc) with
  | Error e -> Alcotest.failf "chrome trace does not reparse: %s" e
  | Ok j ->
    let events = Json.to_list_exn (Json.member "traceEvents" j) in
    let count ph =
      List.length
        (List.filter
           (fun e -> Json.to_str_exn (Json.member "ph" e) = ph)
           events)
    in
    check tint "one duration event per step"
      (List.length wit.Witness.steps)
      (count "X");
    check tint "one verdict marker" 1 (count "i");
    check tbool "thread lanes named" true (count "M" >= 2)

let test_explain_renders () =
  let wit =
    capture_witness ~src:Corpus.racy_counter_src ~entries:[ "inc"; "inc" ]
      (Corpus.racy_prog ())
  in
  let s = Fmt.str "%a" Export.explain wit in
  check tbool "mentions the verdict" true (contains ~sub:"race between" s);
  check tbool "marks a context switch" true (contains ~sub:">>" s)

let () =
  Alcotest.run "diag"
    [
      ( "json",
        [
          Alcotest.test_case "atoms" `Quick test_json_atoms;
          Alcotest.test_case "nested round trip" `Quick
            test_json_nested_roundtrip;
          Alcotest.test_case "rejects malformed" `Quick test_json_rejects;
          Alcotest.test_case "parse_result limits" `Quick
            test_json_parse_result_limits;
          Alcotest.test_case "parse_result adversarial" `Quick
            test_json_parse_result_adversarial;
          QCheck_alcotest.to_alcotest prop_json_parse_result_roundtrip;
          QCheck_alcotest.to_alcotest prop_json_printer_matches_reference;
          QCheck_alcotest.to_alcotest prop_json_round_trip;
          QCheck_alcotest.to_alcotest prop_json_errors_match_reference;
          Alcotest.test_case "edge inputs match the reference" `Quick
            test_json_edges_match_reference;
        ] );
      ( "witness",
        [
          Alcotest.test_case "round trip" `Quick test_witness_roundtrip;
          Alcotest.test_case "future format rejected" `Quick
            test_witness_rejects_future_format;
          QCheck_alcotest.to_alcotest prop_witness_roundtrip;
        ] );
      ( "capture-replay",
        [
          Alcotest.test_case "racy counter (dpor)" `Quick
            (test_capture_replay_racy Cas_mc.Engine.Dpor);
          Alcotest.test_case "racy counter (naive)" `Quick
            (test_capture_replay_racy Cas_mc.Engine.Naive);
          Alcotest.test_case "observer (naive)" `Quick
            test_capture_replay_observer;
          Alcotest.test_case "DRF program captures nothing" `Quick
            test_capture_drf_program;
          Alcotest.test_case "tampered witness rejected" `Quick
            test_replay_detects_tampering;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "dpor vs dpor-par witness" `Quick
            test_witness_deterministic_across_engines;
          Alcotest.test_case "re-capture identical" `Quick
            test_capture_deterministic;
        ] );
      ( "shrink",
        [
          Alcotest.test_case "verdict preserved" `Quick
            test_shrink_preserves_verdict;
          Alcotest.test_case "padding dropped" `Quick test_shrink_drops_padding;
        ] );
      ( "tso",
        [
          Alcotest.test_case "refinement schedule" `Quick
            test_tso_refine_capture_and_replay;
          Alcotest.test_case "abort schedule" `Quick
            test_tso_abort_capture_and_replay;
        ] );
      ( "export",
        [
          Alcotest.test_case "chrome trace" `Quick
            test_chrome_export_wellformed;
          Alcotest.test_case "explain" `Quick test_explain_renders;
        ] );
    ]
