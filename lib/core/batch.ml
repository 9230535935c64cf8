type policy =
  | Fixed of int
  | Dcache_fit of { cache_bytes : int; per_msg_overhead : int }
  | All

let paper_default = Dcache_fit { cache_bytes = 8192; per_msg_overhead = 32 }

let limit policy ~sizes =
  match sizes with
  | [] -> 0
  | _ :: _ -> (
    match policy with
    | All -> List.length sizes
    | Fixed n ->
      if n < 1 then invalid_arg "Batch.limit: Fixed n must be >= 1";
      Int.min n (List.length sizes)
    | Dcache_fit { cache_bytes; per_msg_overhead } ->
      let rec count n used = function
        | [] -> n
        | size :: rest ->
          let used = used + size + per_msg_overhead in
          if used > cache_bytes && n > 0 then n
          else count (n + 1) used rest
      in
      count 0 0 sizes)

let pp ppf = function
  | Fixed n -> Format.fprintf ppf "fixed(%d)" n
  | Dcache_fit { cache_bytes; per_msg_overhead } ->
    Format.fprintf ppf "dcache-fit(%dB,+%dB/msg)" cache_bytes per_msg_overhead
  | All -> Format.fprintf ppf "all-available"
