(* Unit and property tests for wfc_spec: values, type specifications,
   sequential histories. *)

open Wfc_spec

let value = Alcotest.testable Value.pp Value.equal

(* --- Value ------------------------------------------------------------ *)

let test_value_order () =
  let vs =
    [
      Value.unit;
      Value.falsity;
      Value.truth;
      Value.int (-3);
      Value.int 7;
      Value.sym "a";
      Value.sym "b";
      Value.pair (Value.int 1) (Value.sym "x");
      Value.list [ Value.int 1; Value.int 2 ];
    ]
  in
  List.iter
    (fun v ->
      Alcotest.(check int) "reflexive" 0 (Value.compare v v);
      Alcotest.(check bool) "equal self" true (Value.equal v v))
    vs;
  List.iteri
    (fun i a ->
      List.iteri
        (fun j b ->
          if i <> j then
            Alcotest.(check bool)
              (Fmt.str "%a <> %a" Value.pp a Value.pp b)
              false (Value.equal a b))
        vs)
    vs

let test_value_antisym () =
  let a = Value.pair (Value.int 1) (Value.int 2)
  and b = Value.pair (Value.int 1) (Value.int 3) in
  Alcotest.(check bool) "a<b xor b<a" true
    (Value.compare a b * Value.compare b a < 0)

let test_value_destructors () =
  Alcotest.(check bool) "as_bool" true (Value.as_bool Value.truth);
  Alcotest.(check int) "as_int" 42 (Value.as_int (Value.int 42));
  Alcotest.(check string) "as_sym" "ok" (Value.as_sym (Value.sym "ok"));
  let a, b = Value.as_pair (Value.pair Value.truth Value.falsity) in
  Alcotest.check value "fst" Value.truth a;
  Alcotest.check value "snd" Value.falsity b;
  Alcotest.check_raises "as_int of sym"
    (Value.Type_error "expected int, got ok") (fun () ->
      ignore (Value.as_int (Value.sym "ok")))

let value_gen =
  let open QCheck.Gen in
  sized
  @@ fix (fun self n ->
         if n = 0 then
           oneof
             [
               return Value.Unit;
               map (fun b -> Value.Bool b) bool;
               map (fun i -> Value.Int i) small_signed_int;
               map (fun s -> Value.Sym s) (string_size ~gen:(char_range 'a' 'z') (return 3));
             ]
         else
           frequency
             [
               (3, self 0);
               (1, map2 (fun a b -> Value.Pair (a, b)) (self (n / 2)) (self (n / 2)));
               (1, map (fun xs -> Value.List xs) (list_size (int_bound 3) (self (n / 3))));
             ])

let value_arb = QCheck.make ~print:Value.to_string value_gen

let prop_compare_total =
  QCheck.Test.make ~name:"Value.compare total order"
    (QCheck.pair value_arb value_arb) (fun (a, b) ->
      let c1 = Value.compare a b and c2 = Value.compare b a in
      (c1 = 0) = (c2 = 0) && (c1 > 0) = (c2 < 0))

let prop_equal_hash =
  QCheck.Test.make ~name:"equal values hash equally"
    (QCheck.pair value_arb value_arb) (fun (a, b) ->
      (not (Value.equal a b)) || Value.hash a = Value.hash b)

let prop_compare_transitive =
  QCheck.Test.make ~name:"Value.compare transitive"
    (QCheck.triple value_arb value_arb value_arb) (fun (a, b, c) ->
      let sorted = List.sort Value.compare [ a; b; c ] in
      (* sorting must be stable under re-sorting: a weak but useful
         consequence of transitivity *)
      List.equal Value.equal sorted (List.sort Value.compare sorted))

(* --- Value.Intern ------------------------------------------------------- *)

module I = Value.Intern

(* one table shared across all qcheck iterations: sharing must keep holding
   as the table grows *)
let intern_st = I.create ()

let prop_intern_roundtrip =
  QCheck.Test.make ~name:"intern preserves value, hash and printing" value_arb
    (fun v ->
      let c = I.intern intern_st v in
      Value.equal (I.value c) v
      && I.hash c = Value.hash v
      && String.equal (Value.to_string (I.value c)) (Value.to_string v))

let prop_intern_sharing =
  QCheck.Test.make ~name:"intern is maximal sharing (equal iff same cell)"
    (QCheck.pair value_arb value_arb) (fun (a, b) ->
      let ca = I.intern intern_st a and cb = I.intern intern_st b in
      Value.equal a b = I.equal ca cb
      && I.equal ca cb = (I.id ca = I.id cb))

let prop_intern_constructors =
  QCheck.Test.make ~name:"smart constructors agree with intern"
    (QCheck.pair value_arb value_arb) (fun (a, b) ->
      let ca = I.intern intern_st a and cb = I.intern intern_st b in
      I.equal
        (I.pair intern_st ca cb)
        (I.intern intern_st (Value.Pair (a, b)))
      && I.equal
           (I.list intern_st [ ca; cb ])
           (I.intern intern_st (Value.List [ a; b ])))

(* Values over a wide atom space, nested pairs, and lists longer than the
   intern state's scratch stack (16 cells), so a batch of a few hundred
   forces several growths of every intern table. *)
let wide_value_gen =
  let open QCheck.Gen in
  let atom =
    frequency
      [
        (1, return Value.Unit);
        (1, map Value.bool bool);
        (6, map Value.int (int_range (-5000) 5000));
        (2, map (fun i -> Value.sym ("s" ^ string_of_int i)) (int_bound 300));
      ]
  in
  fix (fun self depth ->
      if depth = 0 then atom
      else
        frequency
          [
            (2, atom);
            (4, map2 Value.pair (self (depth - 1)) (self (depth - 1)));
            ( 1,
              map Value.list
                (list_size
                   (int_bound (if depth = 1 then 40 else 5))
                   (self (depth - 1))) );
          ])

let rec subterms acc v =
  let acc = Value.Set.add v acc in
  match v with
  | Value.Pair (a, b) -> subterms (subterms acc a) b
  | Value.List xs -> List.fold_left subterms acc xs
  | Value.Unit | Value.Bool _ | Value.Int _ | Value.Sym _ -> acc

(* A rebuilt copy, physically disjoint from [v] down to the atoms. *)
let rec deep_copy = function
  | Value.Int i -> Value.Int (i + 0)
  | Value.Sym s -> Value.Sym (String.init (String.length s) (String.get s))
  | Value.Pair (a, b) -> Value.Pair (deep_copy a, deep_copy b)
  | Value.List xs -> Value.List (List.map deep_copy xs)
  | (Value.Unit | Value.Bool _) as v -> v

let prop_intern_tables =
  QCheck.Test.make ~count:20
    ~name:"intern tables: sharing, hashes, dense first-interning ids"
    (QCheck.make
       ~print:(fun vs -> Fmt.str "%d values" (List.length vs))
       QCheck.Gen.(list_repeat 400 (wide_value_gen 3)))
    (fun vs ->
      let st = I.create () in
      let batch = vs @ List.map deep_copy (List.filteri (fun i _ -> i mod 3 = 0) vs) in
      (* [seen]: every subterm interned so far; [last]: the newest id *)
      let seen = ref Value.Set.empty and last = ref (-1) in
      let by_value = ref Value.Map.empty and by_id = Hashtbl.create 1024 in
      List.iter
        (fun v ->
          let c = I.intern st v in
          if Value.Set.mem v !seen then begin
            if I.id c > !last then
              QCheck.Test.fail_reportf "re-interning %a made a cell" Value.pp v
          end
          else begin
            if I.id c <= !last then
              QCheck.Test.fail_reportf "new value %a got old id %d" Value.pp v
                (I.id c);
            last := I.id c;
            seen := subterms !seen v
          end;
          (match Value.Map.find_opt v !by_value with
          | Some c' when not (I.equal c c') ->
            QCheck.Test.fail_reportf "%a has two cells" Value.pp v
          | _ -> by_value := Value.Map.add v c !by_value);
          (match Hashtbl.find_opt by_id (I.id c) with
          | Some v' when not (Value.equal v v') ->
            QCheck.Test.fail_reportf "%a and %a share a cell" Value.pp v Value.pp v'
          | _ -> Hashtbl.replace by_id (I.id c) v);
          if not (Value.equal (I.value c) v && I.hash c = Value.hash v) then
            QCheck.Test.fail_reportf "cell of %a: wrong value or hash" Value.pp v;
          let rebuilt =
            match v with
            | Value.Pair (a, b) -> I.pair st (I.intern st a) (I.intern st b)
            | Value.List xs -> I.list st (List.map (I.intern st) xs)
            | _ -> c
          in
          if rebuilt != c then
            QCheck.Test.fail_reportf "smart constructor disagrees on %a" Value.pp v)
        batch;
      let all = !seen in
      let count p = Value.Set.cardinal (Value.Set.filter p all) in
      let ints = count (function Value.Int _ -> true | _ -> false)
      and pairs = count (function Value.Pair _ -> true | _ -> false)
      and lists = count (function Value.List _ -> true | _ -> false)
      and longest =
        Value.Set.fold
          (fun v m -> match v with Value.List xs -> max m (List.length xs) | _ -> m)
          all 0
      in
      (* the initial capacities are 64 ints, 256 pairs, 64 lists and a
         16-cell stack; growth happens at half load *)
      if ints < 129 || pairs < 513 || lists < 129 || longest <= 32 then
        QCheck.Test.fail_reportf
          "batch too small to grow the tables: %d ints, %d pairs, %d lists, longest %d"
          ints pairs lists longest;
      (* dense: the ids handed out are exactly 0 .. distinct subterms - 1 *)
      !last + 1 = Value.Set.cardinal all)

(* [I.tuple] over random id pairs, interleaved with interning values into
   the same state: equal pairs share an id, different pairs never do, no
   tuple id is a cell's id, and 3,000 pairs (plus a few hundred cells) grow
   the 256-slot tuple table several times. A second pass over the same
   pairs allocates the same minor words for 10 rounds as for 100: a hit
   allocates nothing. *)
let prop_intern_tuple =
  QCheck.Test.make ~count:10 ~name:"tuple ids: injective, never a cell's id"
    (QCheck.make
       ~print:(fun (ps, _) -> Fmt.str "%d pairs" (Array.length ps))
       QCheck.Gen.(
         pair
           (array_repeat 3000 (pair (int_bound 80) (int_bound 80)))
           (list_repeat 300 (wide_value_gen 2))))
    (fun (pairs, vs) ->
      let st = I.create () in
      let by_pair = Hashtbl.create 4096 and by_id = Hashtbl.create 4096 in
      let cells = Hashtbl.create 1024 in
      let vs = Array.of_list vs in
      Array.iteri
        (fun i (a, b) ->
          if i mod 10 = 0 then begin
            let c = I.intern st vs.(i / 10 mod Array.length vs) in
            Hashtbl.replace cells (I.id c) ()
          end;
          let id = I.tuple st a b in
          (match Hashtbl.find_opt by_pair (a, b) with
          | Some id' when id' <> id ->
            QCheck.Test.fail_reportf "(%d, %d) got ids %d and %d" a b id' id
          | _ -> Hashtbl.replace by_pair (a, b) id);
          match Hashtbl.find_opt by_id id with
          | Some (a', b') when (a', b') <> (a, b) ->
            QCheck.Test.fail_reportf "(%d, %d) and (%d, %d) share id %d" a b
              a' b' id
          | _ -> Hashtbl.replace by_id id (a, b))
        pairs;
      Hashtbl.iter
        (fun id _ ->
          if Hashtbl.mem cells id then
            QCheck.Test.fail_reportf "tuple id %d is a cell's id" id)
        by_id;
      if Hashtbl.length by_id < 1024 then
        QCheck.Test.fail_reportf "only %d distinct pairs: too few to grow"
          (Hashtbl.length by_id);
      let words rounds =
        let before = Gc.minor_words () in
        for _ = 1 to rounds do
          for i = 0 to Array.length pairs - 1 do
            let a, b = pairs.(i) in
            ignore (I.tuple st a b)
          done
        done;
        Gc.minor_words () -. before
      in
      ignore (words 1);
      words 10 = words 100)

(* [Value.Imap] keeps every binding across growth from a two-slot start,
   answers -1 for an unbound pair, and refuses a component outside
   [0, 2^31), as [I.tuple] over it does. *)
let test_imap () =
  let m = Value.Imap.create 2 in
  for a = 0 to 99 do
    for b = 0 to 29 do
      Value.Imap.add m a (b * 1_000_003) ((a * 30) + b)
    done
  done;
  for a = 0 to 99 do
    for b = 0 to 29 do
      Alcotest.(check int) "bound" ((a * 30) + b)
        (Value.Imap.find m a (b * 1_000_003))
    done
  done;
  Alcotest.(check int) "unbound" (-1) (Value.Imap.find m 100 0);
  let refused f =
    match f () with
    | _ -> Alcotest.fail "out-of-range component accepted"
    | exception Invalid_argument _ -> ()
  in
  refused (fun () -> Value.Imap.find m (-1) 0);
  refused (fun () -> Value.Imap.find m 0 (1 lsl 31));
  refused (fun () -> Value.Imap.add m (1 lsl 31) 0 0);
  refused (fun () -> I.tuple (I.create ()) 0 (-1))

(* After a warm-up, re-interning the same composite values allocates a
   constant number of minor words (those of reading the counter), however
   many calls are made. *)
let test_intern_hit_allocates_nothing () =
  let st = I.create () in
  let vs =
    Array.of_list
      (QCheck.Gen.generate ~rand:(Random.State.make [| 18 |]) ~n:300
         (wide_value_gen 3))
  in
  let cells = Array.map (I.intern st) vs in
  let children =
    Array.map
      (function Value.List xs -> List.map (I.intern st) xs | _ -> [])
      vs
  in
  let words rounds =
    let before = Gc.minor_words () in
    for _ = 1 to rounds do
      for i = 0 to Array.length vs - 1 do
        ignore (I.intern st vs.(i));
        ignore (I.list st children.(i));
        ignore (I.pair st cells.(i) cells.(i))
      done
    done;
    Gc.minor_words () -. before
  in
  ignore (words 1);
  let few = words 10 in
  let many = words 1000 in
  Alcotest.(check (float 0.)) "words for 10 rounds = words for 1000" few many

let test_hash_sibling_reorder () =
  (* the pre-compaction [ha * 65599 + hb] chain was commutative across the
     elements of a right-nested pair chain — the shape dedup fingerprints
     have; the current mixer must separate reordered siblings *)
  let a = Value.int 1 and b = Value.int 2 and t = Value.sym "t" in
  let chain x y = Value.pair x (Value.pair y t) in
  Alcotest.(check bool) "pair chains with swapped heads differ" false
    (Value.hash (chain a b) = Value.hash (chain b a));
  Alcotest.(check bool) "lists with swapped heads differ" false
    (Value.hash (Value.list [ a; b; t ]) = Value.hash (Value.list [ b; a; t ]));
  (* the same over every permutation of a 5-element chain: the legacy
     formula collides on all 120 * 119 / 2 pairs, the mixer on none *)
  let legacy =
    let rec h = function
      | Value.Unit -> 17
      | Value.Bool b -> if b then 31 else 37
      | Value.Int i -> Hashtbl.hash i
      | Value.Sym s -> Hashtbl.hash s
      | Value.Pair (a, b) -> (h a * 65599) + h b
      | Value.List xs -> List.fold_left (fun acc x -> (acc * 131) + h x) 43 xs
    in
    h
  in
  let rec permutations = function
    | [] -> [ [] ]
    | xs ->
      List.concat_map
        (fun x ->
          List.map (List.cons x)
            (permutations (List.filter (fun y -> y != x) xs)))
        xs
  in
  let chains =
    List.map
      (List.fold_left (fun acc x -> Value.Pair (x, acc)) Value.Unit)
      (permutations (List.init 5 (fun i -> Value.int (101 + (i * 17)))))
  in
  let colliding_pairs hash =
    let tbl = Hashtbl.create 256 in
    List.iter
      (fun c ->
        let h = hash c in
        Hashtbl.replace tbl h (1 + Option.value (Hashtbl.find_opt tbl h) ~default:0))
      chains;
    Hashtbl.fold (fun _ k acc -> acc + (k * (k - 1) / 2)) tbl 0
  in
  Alcotest.(check int) "120 permuted chains" 120 (List.length chains);
  Alcotest.(check int) "legacy hash: every pair collides" 7140
    (colliding_pairs legacy);
  Alcotest.(check int) "Value.hash: no pair collides" 0
    (colliding_pairs Value.hash)

(* --- Type_spec --------------------------------------------------------- *)

let toggle =
  Type_spec.deterministic_oblivious ~name:"toggle" ~ports:2
    ~initial:Value.falsity
    ~states:[ Value.falsity; Value.truth ]
    ~responses:[ Value.falsity; Value.truth ]
    ~invocations:[ Value.sym "flip" ]
    (fun q _ -> (Value.bool (not (Value.as_bool q)), q))

let test_step_deterministic () =
  let q', r =
    Type_spec.step_deterministic toggle Value.falsity ~port:0
      ~inv:(Value.sym "flip")
  in
  Alcotest.check value "new state" Value.truth q';
  Alcotest.check value "response is old state" Value.falsity r

let test_step_bad_port () =
  Alcotest.(check bool) "out-of-range port raises" true
    (match
       Type_spec.step_deterministic toggle Value.falsity ~port:5
         ~inv:(Value.sym "flip")
     with
    | _ -> false
    | exception Type_spec.Bad_step _ -> true)

let test_is_deterministic () =
  Alcotest.(check bool) "toggle det" true (Type_spec.is_deterministic toggle);
  let nd =
    Type_spec.nondeterministic_oblivious ~name:"nd" ~ports:1
      ~initial:Value.unit ~states:[ Value.unit ]
      ~invocations:[ Value.sym "go" ]
      (fun q _ -> [ (q, Value.falsity); (q, Value.truth) ])
  in
  Alcotest.(check bool) "nd not det" false (Type_spec.is_deterministic nd)

let test_reachable () =
  let counter =
    Type_spec.deterministic_oblivious ~name:"ctr" ~ports:1
      ~initial:(Value.int 0)
      ~states:(List.init 4 Value.int)
      ~invocations:[ Value.sym "inc" ]
      (fun q _ -> (Value.int ((Value.as_int q + 1) mod 4), Value.sym "ok"))
  in
  let r = Type_spec.reachable counter ~from:(Value.int 0) in
  Alcotest.(check int) "all 4 reachable" 4 (Value.Set.cardinal r);
  let one = Type_spec.reachable_in_one_step counter ~from:(Value.int 2) in
  Alcotest.(check int) "single successor" 1 (Value.Set.cardinal one);
  Alcotest.(check bool) "is 3" true (Value.Set.mem (Value.int 3) one)

let test_validate_ok () =
  match Type_spec.validate toggle with
  | Ok () -> ()
  | Error e -> Alcotest.failf "toggle should validate: %s" e

let test_validate_bad_successor () =
  let broken =
    Type_spec.deterministic_oblivious ~name:"broken" ~ports:1
      ~initial:(Value.int 0)
      ~states:[ Value.int 0 ]
      ~invocations:[ Value.sym "go" ]
      (fun _ _ -> (Value.int 99, Value.sym "ok"))
  in
  Alcotest.(check bool) "validate flags escape" true
    (Result.is_error (Type_spec.validate broken))

let test_check_oblivious () =
  Alcotest.(check bool) "toggle oblivious" true (Type_spec.check_oblivious toggle);
  let biased =
    Type_spec.make ~name:"biased" ~ports:2 ~initial:Value.unit
      ~states:[ Value.unit ]
      ~invocations:[ Value.sym "who" ]
      ~oblivious:false
      (fun q ~port ~inv:_ -> [ (q, Value.int port) ])
  in
  Alcotest.(check bool) "biased not oblivious" false
    (Type_spec.check_oblivious biased)

(* --- Seq_history -------------------------------------------------------- *)

let test_history_states () =
  let h =
    {
      Seq_history.start = Value.falsity;
      entries =
        [
          { port = 0; inv = Value.sym "flip"; resp = Value.falsity };
          { port = 1; inv = Value.sym "flip"; resp = Value.truth };
        ];
    }
  in
  Alcotest.(check int) "length" 2 (Seq_history.length h);
  Alcotest.(check bool) "legal" true (Seq_history.is_legal toggle h);
  Alcotest.check value "final" Value.falsity (Seq_history.final_state toggle h);
  Alcotest.(check int) "port filter" 1
    (List.length (Seq_history.on_port h 0));
  Alcotest.check value "return value" Value.truth
    (Option.get (Seq_history.return_value h))

let test_history_illegal () =
  let h =
    {
      Seq_history.start = Value.falsity;
      entries = [ { port = 0; inv = Value.sym "flip"; resp = Value.truth } ];
    }
  in
  Alcotest.(check bool) "wrong response illegal" false
    (Seq_history.is_legal toggle h)

let test_history_run () =
  match
    Seq_history.run toggle Value.falsity
      [ (0, Value.sym "flip"); (0, Value.sym "flip"); (1, Value.sym "flip") ]
  with
  | None -> Alcotest.fail "run should succeed"
  | Some h ->
    Alcotest.(check int) "3 entries" 3 (Seq_history.length h);
    Alcotest.check value "final" Value.truth (Seq_history.final_state toggle h)

let test_history_enumerate () =
  (* toggle is deterministic with 1 invocation and 2 ports: histories of
     length ≤ 2 number 1 + 2 + 4 = 7. *)
  let hs = Seq_history.enumerate toggle ~start:Value.falsity ~max_len:2 in
  Alcotest.(check int) "count" 7 (List.length hs);
  List.iter
    (fun h ->
      Alcotest.(check bool) "each legal" true (Seq_history.is_legal toggle h))
    hs

let test_history_random () =
  let rng = Random.State.make [| 42 |] in
  for len = 0 to 8 do
    let h = Seq_history.random rng toggle ~start:Value.falsity ~len in
    Alcotest.(check int) "requested length" len (Seq_history.length h);
    Alcotest.(check bool) "legal" true (Seq_history.is_legal toggle h)
  done

let prop_enumerated_all_legal =
  QCheck.Test.make ~name:"enumerate yields only legal histories"
    (QCheck.make (QCheck.Gen.int_bound 3)) (fun n ->
      let hs = Seq_history.enumerate toggle ~start:Value.truth ~max_len:n in
      List.for_all (Seq_history.is_legal toggle) hs)

let () =
  Alcotest.run "wfc_spec"
    [
      ( "value",
        [
          Alcotest.test_case "distinct values differ" `Quick test_value_order;
          Alcotest.test_case "antisymmetry" `Quick test_value_antisym;
          Alcotest.test_case "destructors" `Quick test_value_destructors;
          QCheck_alcotest.to_alcotest prop_compare_total;
          QCheck_alcotest.to_alcotest prop_equal_hash;
          QCheck_alcotest.to_alcotest prop_compare_transitive;
        ] );
      ( "intern",
        [
          Alcotest.test_case "sibling-reorder hash separation" `Quick
            test_hash_sibling_reorder;
          QCheck_alcotest.to_alcotest prop_intern_roundtrip;
          QCheck_alcotest.to_alcotest prop_intern_sharing;
          QCheck_alcotest.to_alcotest prop_intern_constructors;
          QCheck_alcotest.to_alcotest prop_intern_tables;
          Alcotest.test_case "a hit allocates nothing" `Quick
            test_intern_hit_allocates_nothing;
          QCheck_alcotest.to_alcotest prop_intern_tuple;
          Alcotest.test_case "id-pair map" `Quick test_imap;
        ] );
      ( "type_spec",
        [
          Alcotest.test_case "deterministic step" `Quick test_step_deterministic;
          Alcotest.test_case "bad port" `Quick test_step_bad_port;
          Alcotest.test_case "is_deterministic" `Quick test_is_deterministic;
          Alcotest.test_case "reachability" `Quick test_reachable;
          Alcotest.test_case "validate ok" `Quick test_validate_ok;
          Alcotest.test_case "validate catches escapes" `Quick
            test_validate_bad_successor;
          Alcotest.test_case "obliviousness check" `Quick test_check_oblivious;
        ] );
      ( "seq_history",
        [
          Alcotest.test_case "states and accessors" `Quick test_history_states;
          Alcotest.test_case "illegal history" `Quick test_history_illegal;
          Alcotest.test_case "run" `Quick test_history_run;
          Alcotest.test_case "enumerate" `Quick test_history_enumerate;
          Alcotest.test_case "random legal" `Quick test_history_random;
          QCheck_alcotest.to_alcotest prop_enumerated_all_legal;
        ] );
    ]
