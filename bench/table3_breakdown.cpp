// Table 3 (and the right half of Figure 3): per-phase breakdown of the
// semisort, sequential vs maximum parallelism, on the uniform distribution
// with N = n (the paper's N = 10^8 at n = 10^8; all keys light).
#include "breakdown_common.h"

int main(int argc, char** argv) {
  using namespace parsemi;
  return bench::run_breakdown(
      argc, argv, "Table 3 / Figure 3(b): phase breakdown, uniform",
      [](size_t n) {
        return distribution_spec{distribution_kind::uniform,
                                 std::max<uint64_t>(1, n)};
      },
      "paper shape (uniform N=n, all light): scatter still largest (~50%),\n"
      "local sort becomes the second-largest phase (~36% sequentially) since\n"
      "every record passes through a light bucket; pack shrinks.\n");
}
