type t =
  | Unit
  | Bool of bool
  | Int of int
  | Sym of string
  | Pair of t * t
  | List of t list

let rec compare a b =
  let tag = function
    | Unit -> 0
    | Bool _ -> 1
    | Int _ -> 2
    | Sym _ -> 3
    | Pair _ -> 4
    | List _ -> 5
  in
  match (a, b) with
  | Unit, Unit -> 0
  | Bool x, Bool y -> Bool.compare x y
  | Int x, Int y -> Int.compare x y
  | Sym x, Sym y -> String.compare x y
  | Pair (x1, y1), Pair (x2, y2) ->
    let c = compare x1 x2 in
    if c <> 0 then c else compare y1 y2
  | List xs, List ys -> compare_lists xs ys
  | (Unit | Bool _ | Int _ | Sym _ | Pair _ | List _), _ ->
    Int.compare (tag a) (tag b)

and compare_lists xs ys =
  match (xs, ys) with
  | [], [] -> 0
  | [], _ :: _ -> -1
  | _ :: _, [] -> 1
  | x :: xs', y :: ys' ->
    let c = compare x y in
    if c <> 0 then c else compare_lists xs' ys'

let equal a b = compare a b = 0

(* Position-sensitive bit mixer (Boost hash_combine style). The
   multiplicative chains it replaces ([h a * 65599 + h b]) are linear, so
   right-nested spines collided on reordered siblings:
   [Pair (a, Pair (b, c))] and [Pair (b, Pair (a, c))] both hashed to
   65599·(h a + h b) + h c — exactly the cons-chain shape of exploration
   fingerprints. [combine] is not commutative in its arguments and not
   associative across nesting levels, so those families separate. *)
let combine h k =
  (h lxor (k + 0x9e3779b9 + (h lsl 6) + (h lsr 2))) land max_int

let pair_seed = 29
let list_seed = 43

let rec hash = function
  | Unit -> 17
  | Bool b -> if b then 31 else 37
  | Int i -> Hashtbl.hash i
  | Sym s -> Hashtbl.hash s
  | Pair (a, b) -> combine (combine pair_seed (hash a)) (hash b)
  | List xs -> List.fold_left (fun acc x -> combine acc (hash x)) list_seed xs

let rec pp ppf = function
  | Unit -> Fmt.string ppf "()"
  | Bool b -> Fmt.bool ppf b
  | Int i -> Fmt.int ppf i
  | Sym s -> Fmt.string ppf s
  | Pair (a, b) -> Fmt.pf ppf "(%a, %a)" pp a pp b
  | List xs -> Fmt.pf ppf "[%a]" (Fmt.list ~sep:(Fmt.any "; ") pp) xs

let to_string v = Fmt.str "%a" pp v

(* Parser for the grammar [pp] prints: "()", "true"/"false", integers,
   "(a, b)", "[a; b; …]", and bare symbol atoms. Symbols round-trip as long
   as they avoid the delimiter characters — true for every symbol in this
   library (e.g. "test-and-set", "write-start"). *)
exception Parse of string

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse (Fmt.str "%s at position %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let skip_ws () =
    while
      match peek () with Some (' ' | '\t' | '\n') -> true | _ -> false
    do
      incr pos
    done
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> incr pos
    | _ -> fail (Fmt.str "expected '%c'" c)
  in
  let is_digit c = '0' <= c && c <= '9' in
  let is_atom_char c =
    match c with
    | '(' | ')' | '[' | ']' | ',' | ';' | ' ' | '\t' | '\n' | '|' -> false
    | _ -> true
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '(' ->
      incr pos;
      skip_ws ();
      if peek () = Some ')' then begin
        incr pos;
        Unit
      end
      else begin
        let a = value () in
        skip_ws ();
        expect ',';
        let b = value () in
        skip_ws ();
        expect ')';
        Pair (a, b)
      end
    | Some '[' ->
      incr pos;
      skip_ws ();
      if peek () = Some ']' then begin
        incr pos;
        List []
      end
      else begin
        let items = ref [ value () ] in
        skip_ws ();
        while peek () = Some ';' do
          incr pos;
          items := value () :: !items;
          skip_ws ()
        done;
        expect ']';
        List (List.rev !items)
      end
    | Some c when is_digit c || (c = '-' && !pos + 1 < n && is_digit s.[!pos + 1])
      ->
      let start = !pos in
      if c = '-' then incr pos;
      while (match peek () with Some d -> is_digit d | None -> false) do
        incr pos
      done;
      Int (int_of_string (String.sub s start (!pos - start)))
    | Some c when is_atom_char c ->
      let start = !pos in
      while (match peek () with Some d -> is_atom_char d | None -> false) do
        incr pos
      done;
      (match String.sub s start (!pos - start) with
      | "true" -> Bool true
      | "false" -> Bool false
      | atom -> Sym atom)
    | Some c -> fail (Fmt.str "unexpected character '%c'" c)
  in
  match
    let v = value () in
    skip_ws ();
    if !pos <> n then fail "trailing input";
    v
  with
  | v -> Ok v
  | exception Parse msg -> Error (Fmt.str "Value.of_string: %s in %S" msg s)

let unit = Unit
let bool b = Bool b
let int i = Int i
let sym s = Sym s
let pair a b = Pair (a, b)
let list xs = List xs
let truth = Bool true
let falsity = Bool false

exception Type_error of string

let type_error expected v =
  raise (Type_error (Fmt.str "expected %s, got %a" expected pp v))

let as_bool = function Bool b -> b | v -> type_error "bool" v
let as_int = function Int i -> i | v -> type_error "int" v
let as_sym = function Sym s -> s | v -> type_error "sym" v
let as_pair = function Pair (a, b) -> (a, b) | v -> type_error "pair" v
let as_list = function List xs -> xs | v -> type_error "list" v

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Map = Map.Make (Ord)
module Set = Set.Make (Ord)

(* Hash-consing. A [state] owns an intern table mapping a *shallow* key —
   constructor tag plus the ids of already-interned children — to a unique
   [cell]. Interning is bottom-up, so two structurally equal values always
   reach the same cell: equality on cells is physical equality, the hash is
   cached (and equal to [hash] of the underlying value), and the id gives a
   total order that is cheap to sort on.

   States are deliberately NOT global: the exploration engine creates one
   state per domain, living exactly as long as the per-domain dedup/memo
   table keyed on its cells. No mutable state is shared across domains, so
   the scheme is safe under multicore fan-out without any locking; the cost
   is only that domains re-intern values the other domains already saw,
   which is the same trade the per-domain dedup tables already make. *)
module Intern = struct
  let structural_hash = hash

  type cell = { value : t; chash : int; id : int }

  type key =
    | KAtom of t (* Unit | Bool | Int | Sym: compared structurally *)
    | KPair of int * int (* child cell ids *)
    | KList of int list

  module KH = Hashtbl.Make (struct
    type t = key

    let equal k1 k2 =
      match (k1, k2) with
      | KAtom a, KAtom b -> equal a b
      | KPair (a1, b1), KPair (a2, b2) -> a1 = a2 && b1 = b2
      | KList a, KList b -> List.equal Int.equal a b
      | (KAtom _ | KPair _ | KList _), _ -> false

    let hash = function
      | KAtom a -> structural_hash a
      | KPair (a, b) -> combine (combine 7 a) b
      | KList ids -> List.fold_left combine 11 ids
  end)

  type state = { cells : cell KH.t; mutable next_id : int }

  let create () = { cells = KH.create 512; next_id = 0 }
  let value c = c.value
  let hash c = c.chash
  let id c = c.id
  let equal (a : cell) (b : cell) = a == b

  (* [build] is only run on a miss, but a hit is not free: the caller has
     already allocated its [KPair]/[KList] key and the [build] closure, so
     every hit allocates both. [h] must equal [structural_hash (build ())];
     the constructors below maintain this by replaying the [hash]
     recurrence on the children's cached hashes. *)
  let find st key build h =
    match KH.find_opt st.cells key with
    | Some c -> c
    | None ->
      let c = { value = build (); chash = h; id = st.next_id } in
      st.next_id <- st.next_id + 1;
      KH.add st.cells key c;
      c

  let atom st v = find st (KAtom v) (fun () -> v) (structural_hash v)
  let unit st = atom st Unit
  let bool st b = atom st (Bool b)
  let int st i = atom st (Int i)
  let sym st s = atom st (Sym s)

  let pair st a b =
    find st
      (KPair (a.id, b.id))
      (fun () -> Pair (a.value, b.value))
      (combine (combine pair_seed a.chash) b.chash)

  let list st cs =
    find st
      (KList (List.map (fun c -> c.id) cs))
      (fun () -> List (List.map (fun c -> c.value) cs))
      (List.fold_left (fun acc c -> combine acc c.chash) list_seed cs)

  let rec intern st v =
    match v with
    | Unit | Bool _ | Int _ | Sym _ -> atom st v
    | Pair (a, b) -> pair st (intern st a) (intern st b)
    | List xs -> list st (List.map (intern st) xs)

  (* Hashtable keyed on cells of a single state: physical equality plus the
     (unique, densely allocated) id as hash — probes never walk values. *)
  module H = Hashtbl.Make (struct
    type t = cell

    let equal = ( == )
    let hash c = c.id
  end)
end
