//! Catalogue of the benchmark applications of Table I.
//!
//! Nine applications, seventeen kernels. Every kernel is stored as a
//! parameterised C source template: `{{PRAGMA}}` marks the spot where the
//! OpenMP directive of a variant is inserted and `{{NAME}}` placeholders are
//! replaced by concrete problem sizes. Templates are written in the C subset
//! accepted by `pg_frontend`.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Application domains, as listed in Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Domain {
    /// Statistics (Correlation Coefficient).
    Statistics,
    /// Probability Theory (Covariance).
    ProbabilityTheory,
    /// Linear Algebra (Gauss-Seidel, MM, MV, Transpose).
    LinearAlgebra,
    /// Data Mining (K-nearest neighbours).
    DataMining,
    /// Numerical Analysis (Laplace's equation).
    NumericalAnalysis,
    /// Medical Imaging (Particle Filter).
    MedicalImaging,
}

impl Domain {
    /// Display name used in Table I.
    pub fn name(self) -> &'static str {
        match self {
            Domain::Statistics => "Statistics",
            Domain::ProbabilityTheory => "Probability Theory",
            Domain::LinearAlgebra => "Linear Algebra",
            Domain::DataMining => "Data Mining",
            Domain::NumericalAnalysis => "Numerical Analysis",
            Domain::MedicalImaging => "Medical Imaging",
        }
    }
}

/// Direction of a data transfer for the `_mem` variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TransferDirection {
    /// Host → device (`map(to: ...)`).
    ToDevice,
    /// Device → host (`map(from: ...)`).
    FromDevice,
    /// Both directions (`map(tofrom: ...)`).
    Both,
}

/// Number of elements of an array as a function of the size parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Extent {
    /// A single size parameter, e.g. `N`.
    Param(&'static str),
    /// Product of two size parameters, e.g. `N * M`.
    Product(&'static str, &'static str),
    /// A fixed element count.
    Fixed(i64),
}

impl Extent {
    /// Evaluate the extent under concrete size bindings.
    pub fn eval(&self, sizes: &HashMap<String, i64>) -> i64 {
        match self {
            Extent::Param(p) => *sizes.get(*p).unwrap_or(&0),
            Extent::Product(a, b) => {
                sizes.get(*a).copied().unwrap_or(0) * sizes.get(*b).copied().unwrap_or(0)
            }
            Extent::Fixed(v) => *v,
        }
    }

    /// Source spelling of the extent (used in `map` array sections).
    pub fn spelling(&self, sizes: &HashMap<String, i64>) -> String {
        self.eval(sizes).to_string()
    }
}

/// One array the kernel reads or writes, for data-transfer modelling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArraySpec {
    /// Parameter name of the array in the kernel signature.
    pub name: &'static str,
    /// Transfer direction for the `_mem` variants.
    pub direction: TransferDirection,
    /// Element count.
    pub extent: Extent,
    /// Bytes per element (4 for `float`, 8 for `double`).
    pub element_size: usize,
}

impl ArraySpec {
    /// Total bytes transferred for this array under concrete sizes.
    pub fn bytes(&self, sizes: &HashMap<String, i64>) -> u64 {
        (self.extent.eval(sizes).max(0) as u64) * self.element_size as u64
    }
}

/// One size parameter and the values it sweeps over during dataset generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SizeParam {
    /// Placeholder name (e.g. `N`).
    pub name: &'static str,
    /// Sweep values used when generating the dataset.
    pub sweep: &'static [i64],
}

/// A parameterised kernel template.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelTemplate {
    /// Application this kernel belongs to (Table I row).
    pub application: &'static str,
    /// Kernel name (unique within the application).
    pub kernel: &'static str,
    /// Application domain.
    pub domain: Domain,
    /// C source template with `{{PRAGMA}}` and `{{SIZE}}` placeholders.
    pub source: &'static str,
    /// Size parameters and their sweeps.
    pub sizes: &'static [SizeParam],
    /// Arrays involved in host↔device transfers.
    pub arrays: &'static [ArraySpec],
    /// Whether the main loop nest has a second, perfectly nested loop that
    /// `collapse(2)` can legally merge.
    pub collapsible: bool,
}

impl KernelTemplate {
    /// Fully qualified name `application/kernel`.
    pub fn full_name(&self) -> String {
        format!("{}/{}", self.application, self.kernel)
    }

    /// Default size bindings: the middle value of every sweep.
    pub fn default_sizes(&self) -> HashMap<String, i64> {
        self.sizes
            .iter()
            .map(|p| (p.name.to_string(), p.sweep[p.sweep.len() / 2]))
            .collect()
    }

    /// Instantiate the template: substitute concrete sizes and the pragma
    /// line. An empty `pragma` removes the placeholder line entirely
    /// (producing a serial kernel).
    pub fn instantiate(&self, sizes: &HashMap<String, i64>, pragma: &str) -> String {
        let mut out = String::with_capacity(self.source.len() + 128);
        for line in self.source.lines() {
            if line.trim() == "{{PRAGMA}}" {
                if !pragma.is_empty() {
                    let indent: String = line.chars().take_while(|c| c.is_whitespace()).collect();
                    out.push_str(&indent);
                    out.push_str(pragma);
                    out.push('\n');
                }
                continue;
            }
            out.push_str(line);
            out.push('\n');
        }
        for param in self.sizes {
            let placeholder = format!("{{{{{}}}}}", param.name);
            let value = sizes
                .get(param.name)
                .copied()
                .unwrap_or_else(|| param.sweep[0]);
            out = out.replace(&placeholder, &value.to_string());
        }
        out
    }

    /// Total bytes moved to the device (`map(to:)` + `map(tofrom:)`).
    pub fn bytes_to_device(&self, sizes: &HashMap<String, i64>) -> u64 {
        self.arrays
            .iter()
            .filter(|a| {
                matches!(
                    a.direction,
                    TransferDirection::ToDevice | TransferDirection::Both
                )
            })
            .map(|a| a.bytes(sizes))
            .sum()
    }

    /// Total bytes moved back to the host (`map(from:)` + `map(tofrom:)`).
    pub fn bytes_from_device(&self, sizes: &HashMap<String, i64>) -> u64 {
        self.arrays
            .iter()
            .filter(|a| {
                matches!(
                    a.direction,
                    TransferDirection::FromDevice | TransferDirection::Both
                )
            })
            .map(|a| a.bytes(sizes))
            .sum()
    }

    /// All combinations of sweep values (Cartesian product).
    pub fn size_sweep(&self) -> Vec<HashMap<String, i64>> {
        let mut combos: Vec<HashMap<String, i64>> = vec![HashMap::new()];
        for param in self.sizes {
            let mut next = Vec::with_capacity(combos.len() * param.sweep.len());
            for combo in &combos {
                for &value in param.sweep {
                    let mut c = combo.clone();
                    c.insert(param.name.to_string(), value);
                    next.push(c);
                }
            }
            combos = next;
        }
        combos
    }
}

/// One application: a Table I row.
#[derive(Debug, Clone, PartialEq)]
pub struct Application {
    /// Application name.
    pub name: &'static str,
    /// Domain column of Table I.
    pub domain: Domain,
    /// The application's kernels.
    pub kernels: Vec<KernelTemplate>,
}

impl Application {
    /// Number of kernels (the "Num Kernels" column of Table I).
    pub fn kernel_count(&self) -> usize {
        self.kernels.len()
    }
}

/// The full benchmark catalogue (Table I).
pub fn catalog() -> Vec<Application> {
    use crate::sources;
    vec![
        Application {
            name: "Correlation",
            domain: Domain::Statistics,
            kernels: vec![sources::correlation_kernel()],
        },
        Application {
            name: "Covariance",
            domain: Domain::ProbabilityTheory,
            kernels: vec![
                sources::covariance_mean_kernel(),
                sources::covariance_kernel(),
            ],
        },
        Application {
            name: "Gauss Seidel",
            domain: Domain::LinearAlgebra,
            kernels: vec![sources::gauss_seidel_kernel()],
        },
        Application {
            name: "KNN",
            domain: Domain::DataMining,
            kernels: vec![sources::knn_kernel()],
        },
        Application {
            name: "Laplace",
            domain: Domain::NumericalAnalysis,
            kernels: vec![
                sources::laplace_jacobi_kernel(),
                sources::laplace_copy_kernel(),
            ],
        },
        Application {
            name: "MM",
            domain: Domain::LinearAlgebra,
            kernels: vec![sources::matmul_kernel()],
        },
        Application {
            name: "MV",
            domain: Domain::LinearAlgebra,
            kernels: vec![sources::matvec_kernel()],
        },
        Application {
            name: "Transpose",
            domain: Domain::LinearAlgebra,
            kernels: vec![sources::transpose_kernel()],
        },
        Application {
            name: "ParticleFilter",
            domain: Domain::MedicalImaging,
            kernels: vec![
                sources::pf_init_weights_kernel(),
                sources::pf_likelihood_kernel(),
                sources::pf_update_weights_kernel(),
                sources::pf_sum_weights_kernel(),
                sources::pf_normalize_weights_kernel(),
                sources::pf_find_index_kernel(),
                sources::pf_move_particles_kernel(),
            ],
        },
    ]
}

/// All kernels of the catalogue, flattened.
pub fn all_kernels() -> Vec<KernelTemplate> {
    catalog().into_iter().flat_map(|app| app.kernels).collect()
}

/// Look up one kernel by `application/kernel` name.
pub fn find_kernel(full_name: &str) -> Option<KernelTemplate> {
    all_kernels()
        .into_iter()
        .find(|k| k.full_name() == full_name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_has_nine_applications_and_seventeen_kernels() {
        let apps = catalog();
        assert_eq!(apps.len(), 9, "Table I lists nine applications");
        let total: usize = apps.iter().map(Application::kernel_count).sum();
        assert_eq!(total, 17, "Table I lists seventeen kernels in total");
        // Per-application counts from Table I.
        let counts: HashMap<&str, usize> =
            apps.iter().map(|a| (a.name, a.kernel_count())).collect();
        assert_eq!(counts["Correlation"], 1);
        assert_eq!(counts["Covariance"], 2);
        assert_eq!(counts["Gauss Seidel"], 1);
        assert_eq!(counts["KNN"], 1);
        assert_eq!(counts["Laplace"], 2);
        assert_eq!(counts["MM"], 1);
        assert_eq!(counts["MV"], 1);
        assert_eq!(counts["Transpose"], 1);
        assert_eq!(counts["ParticleFilter"], 7);
    }

    #[test]
    fn kernel_names_are_unique() {
        let kernels = all_kernels();
        let mut names: Vec<String> = kernels.iter().map(|k| k.full_name()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), kernels.len());
    }

    #[test]
    fn find_kernel_by_name() {
        assert!(find_kernel("MM/matmul").is_some());
        assert!(find_kernel("ParticleFilter/likelihood").is_some());
        assert!(find_kernel("Nope/missing").is_none());
    }

    #[test]
    fn extent_evaluation() {
        let mut sizes = HashMap::new();
        sizes.insert("N".to_string(), 10i64);
        sizes.insert("M".to_string(), 20i64);
        assert_eq!(Extent::Param("N").eval(&sizes), 10);
        assert_eq!(Extent::Product("N", "M").eval(&sizes), 200);
        assert_eq!(Extent::Fixed(7).eval(&sizes), 7);
        assert_eq!(Extent::Param("missing").eval(&sizes), 0);
    }

    #[test]
    fn size_sweep_is_cartesian_product() {
        let k = find_kernel("Correlation/correlation").unwrap();
        let combos = k.size_sweep();
        let expected: usize = k.sizes.iter().map(|p| p.sweep.len()).product();
        assert_eq!(combos.len(), expected);
    }

    #[test]
    fn instantiate_replaces_pragma_and_sizes() {
        let k = find_kernel("MM/matmul").unwrap();
        let mut sizes = HashMap::new();
        for p in k.sizes {
            sizes.insert(p.name.to_string(), 64i64);
        }
        let src = k.instantiate(&sizes, "#pragma omp parallel for");
        assert!(src.contains("#pragma omp parallel for"));
        assert!(!src.contains("{{PRAGMA}}"));
        assert!(!src.contains("{{N}}"));
        assert!(src.contains("64"));
        // Empty pragma removes the line.
        let serial = k.instantiate(&sizes, "");
        assert!(!serial.contains("#pragma"));
    }

    #[test]
    fn transfer_byte_accounting() {
        let k = find_kernel("MM/matmul").unwrap();
        let mut sizes = HashMap::new();
        sizes.insert("N".to_string(), 100i64);
        // a and b go to the device (2 * N*N floats), c comes back (N*N floats).
        assert_eq!(k.bytes_to_device(&sizes), 2 * 100 * 100 * 4);
        assert_eq!(k.bytes_from_device(&sizes), 100 * 100 * 4);
    }
}
