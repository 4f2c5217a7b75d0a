(* A compact backtracking matcher. Alternatives are tried left to right
   and repetition is greedy, which matches what Tcl scripts of the era
   relied on (not POSIX leftmost-longest across alternations). *)

type node =
  | Char of char
  | Any
  | Class of { negated : bool; ranges : (char * char) list }
  | Bol (* ^ *)
  | Eol (* $ *)
  | Star of node
  | Plus of node
  | Opt of node
  | Group of int * alternatives

and alternatives = node list list

(* [nocase]: the pattern was lowercased, and so is each subject before
   it is matched; ASCII folding keeps every byte offset, so a match's
   offsets index the original subject too. *)
type t = { alts : alternatives; group_count : int; nocase : bool }

exception Parse_error of string

(* ------------------------------------------------------------------ *)
(* Parser *)

type parser_state = {
  src : string;
  mutable pos : int;
  mutable groups : int;
}

let peek p = if p.pos < String.length p.src then Some p.src.[p.pos] else None

let advance p = p.pos <- p.pos + 1

let parse_class p =
  (* p.pos is just after '['. *)
  let negated =
    match peek p with
    | Some '^' ->
      advance p;
      true
    | _ -> false
  in
  let ranges = ref [] in
  let first = ref true in
  let rec go () =
    match peek p with
    | None -> raise (Parse_error "unmatched []")
    | Some ']' when not !first ->
      advance p;
      ()
    | Some c ->
      advance p;
      first := false;
      (* Range c-d unless the '-' is last in the class. *)
      (match (peek p, c) with
      | Some '-', _ ->
        advance p;
        (match peek p with
        | Some ']' ->
          (* Trailing '-' is a literal. *)
          ranges := ('-', '-') :: (c, c) :: !ranges;
          advance p
        | Some d ->
          advance p;
          if d < c then raise (Parse_error "invalid range in []");
          ranges := (c, d) :: !ranges;
          go ()
        | None -> raise (Parse_error "unmatched []"))
      | _ ->
        ranges := (c, c) :: !ranges;
        go ())
  in
  go ();
  Class { negated; ranges = List.rev !ranges }

let rec parse_alternatives p ~in_group =
  let first = parse_branch p ~in_group in
  match peek p with
  | Some '|' ->
    advance p;
    let rest = parse_alternatives p ~in_group in
    first :: rest
  | _ -> [ first ]

and parse_branch p ~in_group =
  let nodes = ref [] in
  let rec go () =
    match peek p with
    | None | Some '|' -> ()
    | Some ')' when in_group -> ()
    | Some ')' -> raise (Parse_error "unmatched ()")
    | Some _ ->
      let atom = parse_atom p in
      let atom =
        match peek p with
        | Some '*' ->
          advance p;
          Star atom
        | Some '+' ->
          advance p;
          Plus atom
        | Some '?' ->
          advance p;
          Opt atom
        | _ -> atom
      in
      nodes := atom :: !nodes;
      go ()
  in
  go ();
  List.rev !nodes

and parse_atom p =
  match peek p with
  | None -> raise (Parse_error "premature end of pattern")
  | Some '(' ->
    advance p;
    p.groups <- p.groups + 1;
    let index = p.groups in
    let alts = parse_alternatives p ~in_group:true in
    (match peek p with
    | Some ')' ->
      advance p;
      Group (index, alts)
    | _ -> raise (Parse_error "unmatched ()"))
  | Some '[' ->
    advance p;
    parse_class p
  | Some '.' ->
    advance p;
    Any
  | Some '^' ->
    advance p;
    Bol
  | Some '$' ->
    advance p;
    Eol
  | Some '\\' ->
    advance p;
    (match peek p with
    | None -> raise (Parse_error "backslash at end of pattern")
    | Some c ->
      advance p;
      (match c with
      | 'n' -> Char '\n'
      | 't' -> Char '\t'
      | 'r' -> Char '\r'
      | c -> Char c))
  | Some (('*' | '+' | '?') as c) ->
    raise (Parse_error (Printf.sprintf "dangling '%c'" c))
  | Some c ->
    advance p;
    Char c

let compile ~nocase pattern =
  let pattern = if nocase then String.lowercase_ascii pattern else pattern in
  let p = { src = pattern; pos = 0; groups = 0 } in
  match parse_alternatives p ~in_group:false with
  | alts ->
    if p.pos < String.length pattern then
      Error "unmatched ()" (* a stray ')' is the only way to stop early *)
    else Ok { alts; group_count = p.groups; nocase }
  | exception Parse_error msg -> Error msg

(* ------------------------------------------------------------------ *)
(* Matcher: continuation-passing backtracking with mutable captures. *)

let class_matches ~negated ranges c =
  let inside = List.exists (fun (lo, hi) -> c >= lo && c <= hi) ranges in
  inside <> negated

(* The leftmost match in [s], already folded for [nocase], that starts
   at or after [from].  Positions index the whole subject, so [Bol]
   tests its real start however late the scan begins. *)
let search re s from =
  let n = String.length s in
  let caps = Array.make (re.group_count + 1) (-1, -1) in
  let rec match_alts alts pos k =
    List.exists (fun branch -> match_seq branch pos k) alts
  and match_seq nodes pos k =
    match nodes with
    | [] -> k pos
    | node :: rest -> match_node node pos (fun pos' -> match_seq rest pos' k)
  and match_node node pos k =
    match node with
    | Char c -> pos < n && s.[pos] = c && k (pos + 1)
    | Any -> pos < n && k (pos + 1)
    | Class { negated; ranges } ->
      pos < n && class_matches ~negated ranges s.[pos] && k (pos + 1)
    | Bol -> pos = 0 && k pos
    | Eol -> pos = n && k pos
    | Opt inner -> match_node inner pos k || k pos
    | Star inner -> match_star inner pos k
    | Plus inner -> match_node inner pos (fun pos' -> match_star inner pos' k)
    | Group (index, alts) ->
      let saved = caps.(index) in
      let start = pos in
      match_alts alts pos (fun stop ->
          caps.(index) <- (start, stop);
          k stop || begin
            caps.(index) <- saved;
            false
          end)
  and match_star inner pos k =
    (* Greedy: consume as much as possible, backing off on failure. The
       pos' > pos guard stops empty-match loops such as a nested empty
       star. *)
    match_node inner pos (fun pos' -> pos' > pos && match_star inner pos' k)
    || k pos
  in
  let attempt start =
    Array.fill caps 0 (Array.length caps) (-1, -1);
    if
      match_alts re.alts start (fun stop ->
          caps.(0) <- (start, stop);
          true)
    then Some (Array.copy caps)
    else None
  in
  let rec scan start =
    if start > n then None
    else
      match attempt start with
      | Some caps -> Some caps
      | None -> scan (start + 1)
  in
  scan from

let fold_case re s = if re.nocase then String.lowercase_ascii s else s

let find re s = search re (fold_case re s) 0

let matches re s = find re s <> None

let expand_template template s caps =
  let buf = Buffer.create (String.length template + 16) in
  let group i =
    if i < Array.length caps then begin
      let start, stop = caps.(i) in
      if start >= 0 then Buffer.add_string buf (String.sub s start (stop - start))
    end
  in
  let n = String.length template in
  let i = ref 0 in
  while !i < n do
    (match template.[!i] with
    | '&' ->
      group 0;
      incr i
    | '\\' when !i + 1 < n -> (
      match template.[!i + 1] with
      | '0' .. '9' as d ->
        group (Char.code d - Char.code '0');
        i := !i + 2
      | c ->
        Buffer.add_char buf c;
        i := !i + 2)
    | c ->
      Buffer.add_char buf c;
      incr i)
  done;
  Buffer.contents buf

let replace re s ~template ~all =
  let subject = fold_case re s and n = String.length s in
  let buf = Buffer.create (n + 16) in
  let count = ref 0 in
  (* [s] before [from] is copied already. *)
  let rec go from =
    if from <= n then
      match search re subject from with
      | None -> Buffer.add_substring buf s from (n - from)
      | Some caps ->
        let start, stop = caps.(0) in
        Buffer.add_substring buf s from (start - from);
        Buffer.add_string buf (expand_template template s caps);
        incr count;
        if all then begin
          (* An empty match still advances past the character. *)
          if stop = start && start < n then Buffer.add_char buf s.[start];
          go (max stop (start + 1))
        end
        else Buffer.add_substring buf s stop (n - stop)
  in
  go 0;
  (Buffer.contents buf, !count)
