let page_shift = 12
let page_size = 1 lsl page_shift
let page_mask = page_size - 1
let vpn addr = addr lsr page_shift
let base addr = addr land lnot page_mask
let offset addr = addr land page_mask
let of_vpn n = n lsl page_shift

let pages_for bytes =
  if bytes < 0 then invalid_arg "Addr.pages_for: negative size";
  (bytes + page_size - 1) lsr page_shift

let is_page_aligned addr = addr land page_mask = 0

type range = { start : int; len : int }

let range ~start ~len =
  if len < 0 then invalid_arg "Addr.range: negative length";
  { start; len }

let range_end r = r.start + r.len

let ranges_overlap a b =
  a.len > 0 && b.len > 0 && a.start < range_end b && b.start < range_end a
