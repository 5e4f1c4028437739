#include "graph/io.hpp"

#include <cstring>
#include <fstream>

#include "tensor/common.hpp"

namespace agnn::graph {

namespace {
constexpr char kMagic[8] = {'A', 'G', 'N', 'N', 'C', 'O', 'O', '1'};
}  // namespace

void write_edge_list(const std::string& path, const EdgeList& el) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  AGNN_ASSERT(out.good(), "cannot open file for writing: " + path);
  out.write(kMagic, sizeof(kMagic));
  const index_t n = el.n;
  const index_t nnz = el.size();
  out.write(reinterpret_cast<const char*>(&n), sizeof(n));
  out.write(reinterpret_cast<const char*>(&nnz), sizeof(nnz));
  out.write(reinterpret_cast<const char*>(el.src.data()),
            static_cast<std::streamsize>(el.src.size() * sizeof(index_t)));
  out.write(reinterpret_cast<const char*>(el.dst.data()),
            static_cast<std::streamsize>(el.dst.size() * sizeof(index_t)));
  AGNN_ASSERT(out.good(), "write failed: " + path);
}

EdgeList read_edge_list(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  AGNN_ASSERT(in.good(), "cannot open file for reading: " + path);
  char magic[8];
  in.read(magic, sizeof(magic));
  AGNN_ASSERT(in.good() && std::memcmp(magic, kMagic, sizeof(kMagic)) == 0,
              "bad magic in graph file: " + path);
  EdgeList el;
  index_t n = 0, nnz = 0;
  in.read(reinterpret_cast<char*>(&n), sizeof(n));
  in.read(reinterpret_cast<char*>(&nnz), sizeof(nnz));
  AGNN_ASSERT(in.good() && n >= 0 && nnz >= 0, "corrupt header in: " + path);
  AGNN_ASSERT(static_cast<std::uint64_t>(nnz) <=
                  detail::bytes_left(in) / (2 * sizeof(index_t)),
              "truncated graph file: " + path);
  el.n = n;
  el.src.resize(static_cast<std::size_t>(nnz));
  el.dst.resize(static_cast<std::size_t>(nnz));
  in.read(reinterpret_cast<char*>(el.src.data()),
          static_cast<std::streamsize>(el.src.size() * sizeof(index_t)));
  in.read(reinterpret_cast<char*>(el.dst.data()),
          static_cast<std::streamsize>(el.dst.size() * sizeof(index_t)));
  AGNN_ASSERT(in.good(), "truncated graph file: " + path);
  for (std::size_t e = 0; e < el.src.size(); ++e) {
    AGNN_ASSERT(el.src[e] >= 0 && el.src[e] < n && el.dst[e] >= 0 && el.dst[e] < n,
                "edge index out of range in: " + path);
  }
  return el;
}

}  // namespace agnn::graph
