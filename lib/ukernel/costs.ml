let ipc_path = 170
let free_words = 8
let per_extra_word = 2
let syscall_fixed = 40
let irq_to_ipc = 110
let ipc_region = Vmk_hw.Cache.region ~lines:14
