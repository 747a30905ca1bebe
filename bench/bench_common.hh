/**
 * @file
 * Shared helpers for the figure/table harnesses: every bench binary
 * regenerates its paper table or figure and prints it to stdout.
 */

#ifndef AW_BENCH_COMMON_HH
#define AW_BENCH_COMMON_HH

#include <cstdio>

/** Print a figure/table banner. */
inline void
banner(const char *title)
{
    std::printf("\n================================================"
                "====================\n%s\n"
                "================================================"
                "====================\n\n",
                title);
}

/**
 * Standard main: print the reproduction. The harnesses take no
 * arguments; any argument is refused with a usage line, so a caller
 * passing flags fails instead of having them ignored.
 */
#define AW_BENCH_MAIN(reproduce_fn)                                  \
    int main(int argc, char **argv)                                  \
    {                                                                \
        if (argc > 1) {                                              \
            std::fprintf(stderr, "usage: %s (takes no arguments)\n", \
                         argv[0]);                                   \
            return 1;                                                \
        }                                                            \
        reproduce_fn();                                              \
        return 0;                                                    \
    }

#endif // AW_BENCH_COMMON_HH
