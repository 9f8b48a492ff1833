/*
 * native.c compiled again for AVX2, one 4-double vector per lane row, and
 * exported as repro_decode_min_sum_avx2 beside native.c's own entry in the
 * same library.  native.py binds it only where the library's CPU query,
 * repro_cpu_supports_avx2, says the CPU runs it, so one library serves every
 * x86-64 host.  Where the compiler cannot target AVX2 (it is not GCC, or the
 * target is not x86-64), this unit is empty and the library has neither.
 */
#if defined(__GNUC__) && !defined(__clang__) && defined(__x86_64__)
#pragma GCC push_options
#pragma GCC target("avx2")
#define ENTRY repro_decode_min_sum_avx2
#include "native.c"
#pragma GCC pop_options

/* 1 where the CPU and the operating system run AVX2, else 0. */
int repro_cpu_supports_avx2(void)
{
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") != 0;
}
#endif
