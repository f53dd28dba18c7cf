let assign ~dynamic ~base ~max_energy ~weights ~path =
  if not dynamic then base
  else
    match weights with
    | None -> base
    | Some tbl ->
      let max_w =
        List.fold_left
          (fun acc br ->
            match Hashtbl.find_opt tbl br with
            | Some w -> Stdlib.max acc w
            | None -> acc)
          0.0 path
      in
      (* weight 0 -> base; each weight point buys a proportional slice of
         the remaining headroom, saturating at max_energy *)
      let scaled = float_of_int base *. (1.0 +. (max_w /. 4.0)) in
      Stdlib.min max_energy (int_of_float scaled)

let update energy ~new_coverage = if new_coverage then energy + 2 else energy - 1
