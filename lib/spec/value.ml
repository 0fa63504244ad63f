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

(* Pairs of ids to non-negative ints by open addressing (power-of-two
   capacity, linear probing, grown at half load): a hit allocates nothing. *)
module Imap = struct
  type t = {
    mutable keys : int array;  (* the packed pair *)
    mutable vals : int array;  (* -1 marks an empty slot *)
    mutable count : int;
  }

  let create cap = { keys = Array.make cap 0; vals = Array.make cap (-1); count = 0 }

  (* One xor-shift-multiply round with a 63-bit odd constant. *)
  let[@inline] mix k =
    let h = (k lxor (k lsr 31)) * 0x2545F4914F6CDD1D in
    h lxor (h lsr 29)

  (* No bit at or above bit 31 and no sign bit in either component, so the
     packing is injective. *)
  let pack a b =
    if (a lor b) lsr 31 <> 0 then
      invalid_arg "Value.Imap: component out of range";
    (a lsl 31) lor b

  let slot keys vals key =
    let mask = Array.length vals - 1 in
    let i = ref (mix key land mask) in
    while Array.unsafe_get vals !i >= 0 && Array.unsafe_get keys !i <> key do
      i := (!i + 1) land mask
    done;
    !i

  (* The probe written out, range check included: the kernel looks up a
     step row, a program row or a top here on every edge, and a call to
     [pack] and one to [slot] per lookup are a measurable share of it. *)
  let find t a b =
    if (a lor b) lsr 31 <> 0 then
      invalid_arg "Value.Imap: component out of range";
    let key = (a lsl 31) lor b and keys = t.keys and vals = t.vals in
    let mask = Array.length vals - 1 in
    let i = ref (mix key land mask) in
    while Array.unsafe_get vals !i >= 0 && Array.unsafe_get keys !i <> key do
      i := (!i + 1) land mask
    done;
    Array.unsafe_get vals !i

  let put keys vals key v =
    let i = slot keys vals key in
    keys.(i) <- key;
    vals.(i) <- v

  (* Counts a binding just stored; doubles the capacity at half load. *)
  let grow t =
    t.count <- t.count + 1;
    if 2 * t.count > Array.length t.vals then begin
      let keys = t.keys and vals = t.vals in
      t.keys <- Array.make (2 * Array.length vals) 0;
      t.vals <- Array.make (2 * Array.length vals) (-1);
      Array.iteri (fun i v -> if v >= 0 then put t.keys t.vals keys.(i) v) vals
    end

  let add t a b v =
    put t.keys t.vals (pack a b) v;
    grow t
end

(* Hash-consing. A [state] maps a *shallow* key — constructor plus the ids
   of already-interned children — to a unique [cell]. Interning is
   bottom-up, so two structurally equal values always reach the same cell:
   equality on cells is physical equality, the hash is cached (and equal to
   [hash] of the underlying value), and the id gives a total order that is
   cheap to sort on.

   Keys other than symbols are ints, so those tables are open-addressing
   arrays. The contract is that a probe that hits allocates nothing; a
   cell, and the value it carries, is built only on a miss:
   - [Unit], [true] and [false] are fields of the state, filled on first use;
   - [Int] atoms are keyed by their value, pairs by their two child ids
     packed into one int ([pair_key]);
   - [Sym] atoms go in a string table (a [Hashtbl] hit allocates nothing);
   - a list is keyed by a fold of its child ids and its length, and a probe
     compares the child ids stored with each candidate. The children are
     pushed onto a scratch stack in the state, so neither [intern (List xs)]
     nor [list] builds an intermediate list.

   States are deliberately NOT global and not thread-safe: the exploration
   engine keeps one in each per-implementation compiled context, alongside
   the transition tables and dedup tables keyed on its cells. *)
module Intern = struct
  let structural_hash = hash

  type cell = { value : t; chash : int; id : int }

  (* Marks an empty table slot and an unset atom field; never handed out. *)
  let vacant = { value = Unit; chash = 0; id = -1 }

  (* Power-of-two capacity, linear probing, grown at half load. Slot [i] is
     empty iff [cells.(i) == vacant]; [keys.(i)] is its int key and
     [aux.(i)], for lists only, where its child ids start in [pool]. *)
  type table = {
    mutable cells : cell array;
    mutable keys : int array;
    mutable aux : int array;
    mutable count : int;
  }

  let table cap =
    {
      cells = Array.make cap vacant;
      keys = Array.make cap 0;
      aux = Array.make cap 0;
      count = 0;
    }

  module Syms = Hashtbl.Make (String)

  type state = {
    mutable next_id : int;
    mutable unit_c : cell;
    mutable true_c : cell;
    mutable false_c : cell;
    ints : table;
    pairs : table;
    lists : table;
    syms : cell Syms.t;
    tuples : Imap.t;  (* [tuple]'s packed keys to their ids *)
    mutable pool : int array;
        (* per interned list, its length then its child ids *)
    mutable pool_len : int;
    mutable stack : cell array;  (* children of the lists being interned *)
    mutable sp : int;
  }

  let create () =
    {
      next_id = 0;
      unit_c = vacant;
      true_c = vacant;
      false_c = vacant;
      ints = table 64;
      pairs = table 256;
      lists = table 64;
      syms = Syms.create 16;
      tuples = Imap.create 256;
      pool = Array.make 256 0;
      pool_len = 0;
      stack = Array.make 16 vacant;
      sp = 0;
    }

  let value c = c.value
  let hash c = c.chash
  let id c = c.id
  let equal (a : cell) (b : cell) = a == b

  let mix = Imap.mix

  (* Ids are dense, and 2^31 cells would not fit in memory, so two ids pack
     into one key. *)
  let max_cells = 1 lsl 31
  let pair_key a b = (a lsl 31) lor b

  let fresh st value chash =
    if st.next_id >= max_cells then failwith "Value.Intern: too many cells";
    let c = { value; chash; id = st.next_id } in
    st.next_id <- st.next_id + 1;
    c

  let rec reinsert t i c key aux =
    if t.cells.(i) == vacant then begin
      t.cells.(i) <- c;
      t.keys.(i) <- key;
      t.aux.(i) <- aux
    end
    else reinsert t ((i + 1) land (Array.length t.cells - 1)) c key aux

  let grow t =
    let cells = t.cells and keys = t.keys and aux = t.aux in
    let cap = 2 * Array.length cells in
    t.cells <- Array.make cap vacant;
    t.keys <- Array.make cap 0;
    t.aux <- Array.make cap 0;
    Array.iteri
      (fun i c ->
        if c != vacant then
          reinsert t (mix keys.(i) land (cap - 1)) c keys.(i) aux.(i))
      cells

  (* Store [c] in the empty slot [i] found by the probe that missed. *)
  let add t i c key aux =
    t.cells.(i) <- c;
    t.keys.(i) <- key;
    t.aux.(i) <- aux;
    t.count <- t.count + 1;
    if 2 * t.count > Array.length t.cells then grow t;
    c

  (* The slot holding [key] in a table of unique keys, or the empty slot
     where it belongs. *)
  let slot t key =
    let cells = t.cells and keys = t.keys in
    let mask = Array.length cells - 1 in
    let i = ref (mix key land mask) in
    while
      Array.unsafe_get cells !i != vacant && Array.unsafe_get keys !i <> key
    do
      i := (!i + 1) land mask
    done;
    !i

  let unit st =
    if st.unit_c == vacant then
      st.unit_c <- fresh st Unit (structural_hash Unit);
    st.unit_c

  let bool st b =
    if b then begin
      if st.true_c == vacant then
        st.true_c <- fresh st (Bool true) (structural_hash (Bool true));
      st.true_c
    end
    else begin
      if st.false_c == vacant then
        st.false_c <- fresh st (Bool false) (structural_hash (Bool false));
      st.false_c
    end

  let int st i =
    let t = st.ints in
    let s = slot t i in
    let c = Array.unsafe_get t.cells s in
    if c != vacant then c
    else
      let v = Int i in
      add t s (fresh st v (structural_hash v)) i 0

  let sym st s =
    match Syms.find st.syms s with
    | c -> c
    | exception Not_found ->
      let v = Sym s in
      let c = fresh st v (structural_hash v) in
      Syms.add st.syms s c;
      c

  let pair st a b =
    let t = st.pairs and key = pair_key a.id b.id in
    let s = slot t key in
    let c = Array.unsafe_get t.cells s in
    if c != vacant then c
    else
      add t s
        (fresh st
           (Pair (a.value, b.value))
           (combine (combine pair_seed a.chash) b.chash))
        key 0

  (* --- id-only tuples --- *)

  (* Like [pair], keyed by the packed ids, but the table stores only the
     tuple's own id: no cell and no value is ever built. The id comes from
     the cell counter, so it is never a cell's id. [Imap] refuses a
     component outside [0, max_cells). *)
  let tuple st a b =
    let t = st.tuples in
    let key = Imap.pack a b and keys = t.Imap.keys and vals = t.Imap.vals in
    (* [Imap.find]'s probe, written out: calling it on every dedup key cost
       4% on the benchmark's verify workload *)
    let mask = Array.length vals - 1 in
    let i = ref (mix key land mask) in
    while Array.unsafe_get vals !i >= 0 && Array.unsafe_get keys !i <> key do
      i := (!i + 1) land mask
    done;
    let w = Array.unsafe_get vals !i in
    if w >= 0 then w
    else begin
      if st.next_id >= max_cells then failwith "Value.Intern: too many cells";
      let id = st.next_id in
      st.next_id <- id + 1;
      keys.(!i) <- key;
      vals.(!i) <- id;
      Imap.grow t;
      id
    end

  (* --- lists, from the scratch stack --- *)

  let push st c =
    if st.sp = Array.length st.stack then begin
      let stack = Array.make (2 * st.sp) vacant in
      Array.blit st.stack 0 stack 0 st.sp;
      st.stack <- stack
    end;
    Array.unsafe_set st.stack st.sp c;
    st.sp <- st.sp + 1

  let rec push_cells st = function
    | [] -> ()
    | c :: cs ->
      push st c;
      push_cells st cs

  let list_key stack base n =
    let h = ref n in
    for i = base to base + n - 1 do
      h := mix (!h + (Array.unsafe_get stack i).id)
    done;
    !h

  (* Are the ids stored at [pool.(off + 1 + k)], k < n, those of
     [stack.(base + k)]? *)
  let rec same_from pool off stack base n k =
    k = n
    || Array.unsafe_get pool (off + 1 + k)
       = (Array.unsafe_get stack (base + k)).id
       && same_from pool off stack base n (k + 1)

  let same_ids pool off stack base n =
    Array.unsafe_get pool off = n && same_from pool off stack base n 0

  let rec values_of stack i stop =
    if i = stop then []
    else (Array.unsafe_get stack i).value :: values_of stack (i + 1) stop

  let rec hash_of stack i stop acc =
    if i = stop then acc
    else
      hash_of stack (i + 1) stop (combine acc (Array.unsafe_get stack i).chash)

  let store_ids st base n =
    let need = st.pool_len + n + 1 in
    if need > Array.length st.pool then begin
      let pool = Array.make (max need (2 * Array.length st.pool)) 0 in
      Array.blit st.pool 0 pool 0 st.pool_len;
      st.pool <- pool
    end;
    let off = st.pool_len in
    st.pool.(off) <- n;
    for k = 0 to n - 1 do
      st.pool.(off + 1 + k) <- st.stack.(base + k).id
    done;
    st.pool_len <- need;
    off

  (* Intern the list of the cells pushed since [base], and pop them. *)
  let list_from st base =
    let stack = st.stack and t = st.lists in
    let n = st.sp - base in
    let key = list_key stack base n in
    let cells = t.cells and keys = t.keys and aux = t.aux in
    let mask = Array.length cells - 1 in
    let i = ref (mix key land mask) in
    while
      let c = Array.unsafe_get cells !i in
      c != vacant
      && not
           (Array.unsafe_get keys !i = key
           && same_ids st.pool (Array.unsafe_get aux !i) stack base n)
    do
      i := (!i + 1) land mask
    done;
    let c = Array.unsafe_get cells !i in
    let c =
      if c != vacant then c
      else
        let v = List (values_of stack base st.sp) in
        let c = fresh st v (hash_of stack base st.sp list_seed) in
        add t !i c key (store_ids st base n)
    in
    st.sp <- base;
    c

  let list st cs =
    let base = st.sp in
    push_cells st cs;
    list_from st base

  let rec intern st v =
    match v with
    | Unit -> unit st
    | Bool b -> bool st b
    | Int i -> int st i
    | Sym s -> sym st s
    | Pair (a, b) -> pair st (intern st a) (intern st b)
    | List xs ->
      let base = st.sp in
      push_values st xs;
      list_from st base

  and push_values st = function
    | [] -> ()
    | x :: xs ->
      push st (intern st x);
      push_values st xs

  (* Hashtable keyed on cells of a single state: physical equality plus the
     (unique, densely allocated) id as hash — probes never walk values. *)
  module H = Hashtbl.Make (struct
    type t = cell

    let equal = ( == )
    let hash c = c.id
  end)

  (* Numbers handed out in order of first [number]; [ids] finds a cell's
     number by its id, and [cells] gives the cell back by its number. *)
  module Numbering = struct
    type t = { ids : Imap.t; mutable cells : cell array; mutable n : int }

    let create () = { ids = Imap.create 16; cells = Array.make 8 vacant; n = 0 }
    let length t = t.n

    let number t c =
      let k = Imap.find t.ids c.id 0 in
      if k >= 0 then k
      else begin
        let k = t.n in
        if k = Array.length t.cells then begin
          let cells = Array.make (2 * k) vacant in
          Array.blit t.cells 0 cells 0 k;
          t.cells <- cells
        end;
        t.cells.(k) <- c;
        t.n <- k + 1;
        Imap.add t.ids c.id 0 k;
        k
      end

    let cell t k =
      if k < 0 || k >= t.n then invalid_arg "Value.Intern.Numbering.cell";
      Array.unsafe_get t.cells k
  end
end
