type view = { id : int; members : int list }

type t = { mutable view : view }

let create ~members =
  if members = [] then invalid_arg "Membership.create: empty chain";
  { view = { id = 1; members } }

let current t = t.view

let validate t ~view_id = if view_id = t.view.id then `Current else `Stale t.view

let remove t node =
  if not (List.mem node t.view.members) then
    invalid_arg (Printf.sprintf "Membership.remove: node %d is not a member" node);
  let members = List.filter (fun m -> m <> node) t.view.members in
  t.view <- { id = t.view.id + 1; members };
  t.view

(* Neighbour lookup by position in the member list. *)
let neighbours node members =
  let arr = Array.of_list members in
  let n = Array.length arr in
  let rec find i = if i >= n then None else if arr.(i) = node then Some i else find (i + 1) in
  match find 0 with
  | None -> None
  | Some i ->
      Some
        ( (if i > 0 then Some arr.(i - 1) else None),
          if i < n - 1 then Some arr.(i + 1) else None )

let rejoin t ~node ~believed_view =
  ignore believed_view;
  (* Whether or not the believed view is stale, the answer is the current
     view; what matters is whether the node is still a member. *)
  match neighbours node t.view.members with
  | None -> `Removed t.view
  | Some (pred, succ) -> `Member (t.view, pred, succ)

let predecessor t node =
  match neighbours node t.view.members with Some (p, _) -> p | None -> None

let successor t node =
  match neighbours node t.view.members with Some (_, s) -> s | None -> None
