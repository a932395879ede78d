#!/bin/sh
# FP-contraction discipline, machine-checked (DESIGN.md §10, "SIMD
# dispatch story"): the AVX2 and x86-64-v4 clones that
# COTERIE_SIMD_CLONES emits must hold no fused multiply-add, because an
# FMA rounds once where the baseline code rounds twice and so moves
# results off the bit-identical contract. The one allowed exception is
# SSIM's buildTileRow, whose spec is a 1e-12 envelope.
#
# Usage: tools/check_clones.sh libcoterie_world.a [more .a or .o ...]
#
# Exit status: 0 when no clone body outside buildTileRow holds a
# vfmadd/vfmsub/vfnmadd/vfnmsub; 1 when one does (each offender is
# named with its count); 2 on no argument or a missing file; 77 (ctest
# SKIP) when objdump is missing or the build has no clones at all
# (COTERIE_SIMD=OFF, sanitizers, -O0).

if [ "$#" -eq 0 ]; then
    echo "usage: $0 LIBRARY..." >&2
    exit 2
fi
for lib in "$@"; do
    if [ ! -f "$lib" ]; then
        echo "check_clones: no such file: $lib" >&2
        exit 2
    fi
done
if ! command -v objdump >/dev/null 2>&1; then
    echo "check_clones: SKIP: no objdump"
    exit 77
fi

objdump -d --no-show-raw-insn "$@" | awk '
    # A symbol header: "0000000000000450 <mangled.arch_x86_64_v4>:".
    /^[0-9a-f]+ <.*>:$/ {
        sym = substr($2, 2, length($2) - 3)
        clone = sym ~ /\.(arch_x86_64_v4|avx2)(\.|$)/
        if (clone && !(sym in fma)) {
            fma[sym] = 0
            ++bodies
        }
        next
    }
    clone && /[ \t]v(f|fn)m(add|sub)[0-9a-z]*[ \t]/ { ++fma[sym] }
    END {
        if (bodies == 0) {
            print "check_clones: SKIP: no AVX2 or x86-64-v4 clone in the build"
            exit 77
        }
        bad = 0
        for (s in fma) {
            if (fma[s] == 0)
                continue
            if (s ~ /buildTileRow/) {
                printf "check_clones: allowed: %d FMA in %s\n", fma[s], s
                continue
            }
            printf "check_clones: FAIL: %d FMA in %s\n", fma[s], s
            bad = 1
        }
        printf "check_clones: %d clone symbols checked\n", bodies
        exit bad
    }'
