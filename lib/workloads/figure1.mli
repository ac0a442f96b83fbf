(** The paper's motivating example (Figures 1 and 2): [Node2.findInMemory]
    from _202_jess, with the working memory built and churned the way the
    benchmark does, so the Token pointers carry no allocation-order stride
    while each Token keeps its co-allocated [facts] array at a constant
    offset. Used by the quickstart example and by the Table 1 / Figures
    3-5 reproductions in [spf_bench paper]. *)

val source : string

val kernel_name : string
(** ["Node2.findInMemory"]. *)

val compile : unit -> Vm.Classfile.program

val describe_site : Jit.Stack_model.load_info array -> int -> string
(** Table 1's symbolic name for a load site of the kernel — the address it
    dereferences, written the way the paper writes them ([&tv.ptr],
    [&tv.v\[i\]], [&tmp.facts], ...). *)
