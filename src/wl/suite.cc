#include "wl/suite.hh"

#include "common/logging.hh"
#include "wl/workload_spec.hh"

namespace rsep::wl
{

const std::vector<WorkloadSpec> &
suiteSpecs()
{
    // Archetype + parameter choices are documented in kernels.hh and
    // DESIGN.md; per-benchmark params target that benchmark's behaviour
    // in the paper's Figs. 1, 4, 5 (zero ratio, redundancy, who wins).
    // Order is the paper's figure order (suiteNames derives from it).
    static const std::vector<WorkloadSpec> specs = {
        {"perlbench", InterpParams{}},
        {"bzip2", BlockSortParams{.blockLen = 1 << 19, .meanRunLen = 24}},
        {"gcc", BranchyGameParams{.boardCells = 1 << 15, .takenPct = 40}},
        {"bwaves", DenseLinAlgParams{.constCoefPct = 10}},
        {"gamess", RegularZeroParams{}},
        {"mcf", PointerChaseParams{.nodes = 1 << 16}},
        {"milc", SparseSolverParams{.rows = 1 << 12, .nnzPerRow = 16}},
        {"zeusmp", StencilParams{.gridCells = 1 << 14, .zeroPct = 50}},
        {"gromacs", DenseLinAlgParams{.constCoefPct = 60}},
        {"cactusADM", StencilParams{.gridCells = 1 << 14, .zeroPct = 45}},
        {"leslie3d", StencilParams{.gridCells = 1 << 14, .zeroPct = 12}},
        {"namd", DenseLinAlgParams{.constCoefPct = 0}},
        {"gobmk", BranchyGameParams{.takenPct = 52}},
        {"dealII", RecomputeParams{}},
        {"soplex", SparseSolverParams{.rows = 1 << 11, .nnzPerRow = 24}},
        {"povray", DenseLinAlgParams{.constCoefPct = 30}},
        {"calculix", DenseLinAlgParams{.constCoefPct = 5}},
        {"hmmer", DynProgParams{.clampDuty = 45}},
        {"sjeng", BranchyGameParams{.takenPct = 48}},
        {"GemsFDTD", StencilParams{.gridCells = 1 << 14, .zeroPct = 20}},
        {"libquantum", GateSimParams{.stateWords = 1 << 19}},
        {"h264ref", StridedMediaParams{}},
        {"tonto", DenseLinAlgParams{.constCoefPct = 15}},
        {"lbm", StreamingParams{}},
        {"omnetpp", EventQueueParams{.heapSize = 1 << 16}},
        {"astar", BranchyGameParams{.boardCells = 1 << 16, .takenPct = 55}},
        {"wrf", SparseSolverParams{.rows = 1 << 11, .nnzPerRow = 16,
                                   .vpFriendly = true}},
        {"sphinx3", SparseSolverParams{.rows = 1 << 10, .nnzPerRow = 8}},
        {"xalancbmk", XmlParseParams{}},
    };
    return specs;
}

const std::vector<std::string> &
suiteNames()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> v;
        v.reserve(suiteSpecs().size());
        for (const WorkloadSpec &s : suiteSpecs())
            v.push_back(s.name);
        return v;
    }();
    return names;
}

Workload
makeWorkload(const std::string &name)
{
    std::optional<WorkloadSpec> spec = findWorkloadSpec(name);
    if (!spec)
        rsep_fatal("unknown workload '%s' (see --list-workloads)",
                   name.c_str());
    return buildWorkload(*spec);
}

} // namespace rsep::wl
