#include "rsep/costmodel.hh"

#include <sstream>

#include "rsep/distance_pred.hh"
#include "rsep/fifo_history.hh"

namespace rsep::equality
{

RsepStorage
computeStorage(const RsepConfig &cfg, unsigned num_pregs, unsigned rob_size)
{
    RsepStorage s;
    DistancePredictor dp(cfg.distParams());
    s.predictorKB = static_cast<double>(dp.storageBits()) / 8.0 / 1024.0;

    FifoHistory fifo(cfg.historyDepth);
    s.fifoHistoryB = fifo.storageBits(cfg.hashBits) / 8.0;

    // Dedicated FIFO propagating predicted distances from Rename to
    // Commit: 8-bit distance per in-flight-window slot (paper: 224B).
    s.distanceFifoB = cfg.propagatePredictedDistance
        ? (rob_size + 32) * 8 / 8.0
        : 0.0;

    // ISRB: two counters + preg tag per entry (paper: 63B for 24).
    s.isrbB = cfg.isrbEntries * (2 * cfg.isrbCounterBits + 9) / 8.0;

    s.hrfB = num_pregs * cfg.hashBits / 8.0;

    s.totalKB = s.predictorKB +
                (s.fifoHistoryB + s.distanceFifoB + s.isrbB) / 1024.0;
    return s;
}

double
hrfAreaFraction(unsigned prf_read_ports, unsigned prf_write_ports,
                unsigned prf_width_bits, unsigned hrf_banks,
                unsigned hrf_write_ports, unsigned hash_bits)
{
    // Area ~ width x (r + w)^2 per register (Zyuban & Kogge trend).
    double prf_ports = prf_read_ports + prf_write_ports;
    double prf_area = prf_width_bits * prf_ports * prf_ports;

    // The HRF is banked: each bank sees 1 in-order read port and
    // write_ports / banks random write ports.
    double bank_write = static_cast<double>(hrf_write_ports) / hrf_banks;
    double hrf_ports = 1.0 + bank_write;
    double hrf_area = hash_bits * hrf_ports * hrf_ports;

    return hrf_area / prf_area;
}

u64
fifoComparators(unsigned depth, unsigned commit_width)
{
    return static_cast<u64>(depth) * commit_width +
           static_cast<u64>(commit_width) * (commit_width - 1) / 2;
}

std::string
describeStorage(const RsepConfig &cfg, unsigned num_pregs, unsigned rob_size)
{
    RsepStorage s = computeStorage(cfg, num_pregs, rob_size);
    std::ostringstream os;
    os.setf(std::ios::fixed);
    os.precision(1);
    os << "distance predictor: " << s.predictorKB << "KB"
       << ", FIFO history: " << s.fifoHistoryB << "B"
       << ", distance FIFO: " << s.distanceFifoB << "B"
       << ", ISRB: " << s.isrbB << "B"
       << ", HRF (mirrors PRF): " << s.hrfB << "B"
       << " -> total (excl. HRF): " << s.totalKB << "KB";
    return os.str();
}

} // namespace rsep::equality
