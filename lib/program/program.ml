open Wfc_spec

type 'a t =
  | Return of 'a
  | Invoke of {
      obj : int;
      inv : Value.t;
      k : Value.t -> 'a t;
    }

let return x = Return x

let invoke ~obj inv = Invoke { obj; inv; k = (fun r -> Return r) }

let rec bind p f =
  match p with
  | Return x -> f x
  | Invoke { obj; inv; k } -> Invoke { obj; inv; k = (fun r -> bind (k r) f) }

let map f p = bind p (fun x -> Return (f x))

module Syntax = struct
  let ( let* ) = bind
  let ( let+ ) p f = map f p
end

let rec rename_objects ren = function
  | Return x -> Return x
  | Invoke { obj; inv; k } ->
    Invoke { obj = ren obj; inv; k = (fun r -> rename_objects ren (k r)) }

let length_along oracle p =
  let rec go n = function
    | Return _ -> n
    | Invoke { inv; k; _ } -> go (n + 1) (k (oracle inv))
  in
  go 0 p

let rec for_list xs body =
  match xs with
  | [] -> Return ()
  | x :: rest -> bind (body x) (fun () -> for_list rest body)

let repeat n body = for_list (List.init n Fun.id) body
