//! Kernel-instance generation: the Code Transformation module of the OpenMP
//! Advisor, reproduced as a source-level variant generator.
//!
//! For every kernel of the Table I catalogue, every applicable variant,
//! every problem size of the kernel's sweep and every launch configuration of
//! the parallelism budget, [`generate_instances`] emits one
//! [`KernelInstance`]: the concrete OpenMP C source plus all the metadata the
//! later pipeline stages (graph construction, runtime simulation, feature
//! extraction) need.

use crate::launch::{LaunchConfig, ParallelismBudget};
use crate::variant::Variant;
use pg_frontend::lexer::{line_comment_end, scan_directive};
use pg_kernels::KernelTemplate;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::collections::HashMap;

/// A fully instantiated kernel variant ready to be "compiled and run".
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KernelInstance {
    /// Application name (Table I row).
    pub application: String,
    /// Kernel name within the application.
    pub kernel: String,
    /// Which of the six transformations this is.
    pub variant: Variant,
    /// Concrete problem sizes.
    pub sizes: HashMap<String, i64>,
    /// Launch configuration (teams and threads).
    pub launch: LaunchConfig,
    /// The instantiated OpenMP C source.
    pub source: String,
    /// Bytes transferred host→device when the variant transfers data.
    pub bytes_to_device: u64,
    /// Bytes transferred device→host when the variant transfers data.
    pub bytes_from_device: u64,
}

impl KernelInstance {
    /// Fully qualified name `application/kernel`.
    pub fn full_name(&self) -> String {
        format!("{}/{}", self.application, self.kernel)
    }

    /// The instance's launch-free body (see [`BodyKey`]). Borrows the
    /// source; the only allocation is the spelled launch clause.
    pub fn body_key(&self) -> BodyKey<'_> {
        let clause = self.variant.launch_clause(self.launch);
        let (head, tail) = match launch_clause_at(&self.source, &clause) {
            Some(at) => (&self.source[..at], Some(&self.source[at + clause.len()..])),
            None => (self.source.as_str(), None),
        };
        BodyKey {
            head,
            tail,
            bytes_to_device: self.bytes_to_device,
            bytes_from_device: self.bytes_from_device,
        }
    }

    /// Human-readable identifier including variant and sizes.
    pub fn describe(&self) -> String {
        let mut sizes: Vec<(&String, &i64)> = self.sizes.iter().collect();
        sizes.sort();
        let sizes: Vec<String> = sizes.iter().map(|(k, v)| format!("{k}={v}")).collect();
        format!(
            "{}/{} [{}] {} teams={} threads={}",
            self.application,
            self.kernel,
            self.variant.name(),
            sizes.join(","),
            self.launch.teams,
            self.launch.threads
        )
    }
}

/// The launch-free body of a [`KernelInstance`]: its source with its own
/// launch clause ([`Variant::launch_clause`]) cut out, plus its transfer
/// bytes. Instances of one (kernel, variant, sizes) across a launch sweep
/// share a body key, and instances with equal keys differ only in the digits
/// of their launch clauses.
///
/// The clause is cut only from a `#pragma omp` line, as the frontend lexes
/// one (never from a comment, a literal or code), and only when that line
/// spells no other launch clause. The body's pragma then names no launch at
/// all, so a graph builder given the instance's launch in its config reads
/// exactly what it reads from the source's pragma.
///
/// The key is built from content alone, never from a name, and records
/// where the clause was cut: a source that does not spell its own launch
/// (a raw source, say) keys to itself and never equals a key with a cut.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BodyKey<'a> {
    /// The source before the launch clause, or the whole source when it
    /// does not spell its launch.
    head: &'a str,
    /// The source after the launch clause; `None` when there was no cut.
    tail: Option<&'a str>,
    bytes_to_device: u64,
    bytes_from_device: u64,
}

impl<'a> BodyKey<'a> {
    /// The body as source text: borrowed when the source does not spell its
    /// launch (the body is the source itself), owned when the clause was
    /// cut out. A pragma line is one token, so the body has the source's
    /// tokens, AST nodes and nesting depth; only its length differs.
    pub fn text(&self) -> Cow<'a, str> {
        match self.tail {
            Some(tail) => Cow::Owned([self.head, tail].concat()),
            None => Cow::Borrowed(self.head),
        }
    }
}

/// Clause names that set a launch. A pragma line that spells one besides
/// the cut clause would keep deciding the launch after the cut.
const LAUNCH_CLAUSE_NAMES: [&str; 3] = ["num_threads", "num_teams", "thread_limit"];

/// Byte offset of `clause` in the code of the first `#pragma omp` directive
/// of `source` that spells it, when that directive spells no other launch
/// clause.
///
/// Directives are found the way the frontend's lexer finds them: comments
/// (a `//` one up to [`line_comment_end`], past spliced newlines) and string
/// or character literals are skipped, and a `#` outside them starts a
/// directive that [`scan_directive`] reads, so a comment on the directive's
/// line is neither cut nor counted.
fn launch_clause_at(source: &str, clause: &str) -> Option<usize> {
    let bytes = source.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        i = match (bytes[i], bytes.get(i + 1)) {
            (b'/', Some(b'/')) => line_comment_end(source, i),
            (b'/', Some(b'*')) => source[i + 2..]
                .find("*/")
                .map_or(bytes.len(), |at| i + 2 + at + 2),
            (quote @ (b'"' | b'\''), _) => {
                let mut j = i + 1;
                while j < bytes.len() && bytes[j] != quote {
                    j += if bytes[j] == b'\\' { 2 } else { 1 };
                }
                j + 1
            }
            (b'#', _) => {
                // The lexer rejects a comment that never closes; nothing to cut.
                let directive = scan_directive(source, i + 1).ok()?;
                let text = directive.text(source);
                let is_omp = text
                    .trim_start()
                    .strip_prefix("pragma")
                    .is_some_and(|rest| rest.trim_start().starts_with("omp"));
                let found = directive
                    .code
                    .iter()
                    .find_map(|code| source[code.clone()].find(clause).map(|at| code.start + at));
                if let Some(at) = found.filter(|_| is_omp) {
                    let alone = LAUNCH_CLAUSE_NAMES
                        .iter()
                        .all(|name| text.matches(name).count() == clause.matches(name).count());
                    return alone.then_some(at);
                }
                directive.end
            }
            _ => i + 1,
        };
    }
    None
}

/// Controls how large the generated instance set is.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GeneratorConfig {
    /// Keep every `stride`-th size combination (1 = all).
    pub size_stride: usize,
    /// Keep every `stride`-th launch configuration (1 = all).
    pub launch_stride: usize,
    /// Subdivide each gap of every size sweep into this many segments by
    /// inserting geometric midpoints (1 = the template sweeps as written).
    /// This is how `Full`-scale dataset generation densifies toward the
    /// paper's point counts without touching the kernel catalogue.
    pub size_densify: usize,
    /// Subdivide each gap of every launch-budget axis into this many
    /// segments (1 = the budget as given); see
    /// [`ParallelismBudget::densified`].
    pub launch_densify: usize,
    /// Include CPU variants.
    pub include_cpu: bool,
    /// Include GPU variants.
    pub include_gpu: bool,
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        Self {
            size_stride: 1,
            launch_stride: 1,
            size_densify: 1,
            launch_densify: 1,
            include_cpu: true,
            include_gpu: true,
        }
    }
}

impl GeneratorConfig {
    /// A reduced configuration for fast test/CI runs.
    pub fn fast() -> Self {
        Self {
            size_stride: 2,
            launch_stride: 2,
            ..Self::default()
        }
    }
}

/// Generate one instance for a single (kernel, variant, sizes, launch) tuple.
pub fn instantiate(
    kernel: &KernelTemplate,
    variant: Variant,
    sizes: &HashMap<String, i64>,
    launch: LaunchConfig,
) -> KernelInstance {
    let pragma = variant.pragma(kernel, sizes, launch.teams, launch.threads);
    let source = kernel.instantiate(sizes, &pragma);
    let (to_dev, from_dev) = if variant.has_data_transfer() {
        (
            kernel.bytes_to_device(sizes),
            kernel.bytes_from_device(sizes),
        )
    } else {
        (0, 0)
    };
    KernelInstance {
        application: kernel.application.to_string(),
        kernel: kernel.kernel.to_string(),
        variant,
        sizes: sizes.clone(),
        launch,
        source,
        bytes_to_device: to_dev,
        bytes_from_device: from_dev,
    }
}

/// Cartesian size combinations of a kernel, with each per-parameter sweep
/// densified by `factor` (geometric midpoints, matching
/// [`pg_advisor::launch::densify_axis`](crate::launch::densify_axis)).
/// `factor <= 1` reproduces [`KernelTemplate::size_sweep`] exactly,
/// combination order included.
fn densified_size_combos(kernel: &KernelTemplate, factor: usize) -> Vec<HashMap<String, i64>> {
    if factor <= 1 {
        return kernel.size_sweep();
    }
    let mut combos: Vec<HashMap<String, i64>> = vec![HashMap::new()];
    for param in kernel.sizes {
        let unsigned: Vec<u64> = param.sweep.iter().map(|&v| v.max(0) as u64).collect();
        let sweep = crate::launch::densify_axis(&unsigned, factor);
        let mut next = Vec::with_capacity(combos.len() * sweep.len());
        for combo in &combos {
            for &value in &sweep {
                let mut c = combo.clone();
                c.insert(param.name.to_string(), value as i64);
                next.push(c);
            }
        }
        combos = next;
    }
    combos
}

/// Generate all instances for one kernel template under a budget.
pub fn generate_for_kernel(
    kernel: &KernelTemplate,
    budget: &ParallelismBudget,
    config: &GeneratorConfig,
) -> Vec<KernelInstance> {
    let mut out = Vec::new();
    let budget = budget.densified(config.launch_densify);
    let size_combos: Vec<HashMap<String, i64>> = densified_size_combos(kernel, config.size_densify)
        .into_iter()
        .step_by(config.size_stride.max(1))
        .collect();
    for variant in Variant::applicable_variants(kernel) {
        if variant.is_gpu() && !config.include_gpu {
            continue;
        }
        if !variant.is_gpu() && !config.include_cpu {
            continue;
        }
        let launches: Vec<LaunchConfig> = if variant.is_gpu() {
            budget.gpu_launches()
        } else {
            budget.cpu_launches()
        }
        .into_iter()
        .step_by(config.launch_stride.max(1))
        .collect();
        for sizes in &size_combos {
            for &launch in &launches {
                out.push(instantiate(kernel, variant, sizes, launch));
            }
        }
    }
    out
}

/// Generate instances for every kernel of the catalogue.
pub fn generate_instances(
    kernels: &[KernelTemplate],
    budget: &ParallelismBudget,
    config: &GeneratorConfig,
) -> Vec<KernelInstance> {
    kernels
        .iter()
        .flat_map(|k| generate_for_kernel(k, budget, config))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pg_kernels::{all_kernels, find_kernel};

    #[test]
    fn instance_source_parses_and_contains_the_right_directive() {
        let mm = find_kernel("MM/matmul").unwrap();
        let sizes = mm.default_sizes();
        for variant in Variant::ALL {
            let inst = instantiate(
                &mm,
                variant,
                &sizes,
                LaunchConfig {
                    teams: 80,
                    threads: 128,
                },
            );
            let ast = pg_frontend::parse(&inst.source).unwrap();
            let has_target = ast
                .find_first(pg_frontend::AstKind::OmpTargetTeamsDistributeParallelForDirective)
                .is_some();
            assert_eq!(has_target, variant.is_gpu(), "{}", variant.name());
        }
    }

    #[test]
    fn data_transfer_bytes_only_for_mem_variants() {
        let mm = find_kernel("MM/matmul").unwrap();
        let mut sizes = HashMap::new();
        sizes.insert("N".to_string(), 128i64);
        let launch = LaunchConfig {
            teams: 80,
            threads: 128,
        };
        let gpu = instantiate(&mm, Variant::Gpu, &sizes, launch);
        assert_eq!(gpu.bytes_to_device, 0);
        assert_eq!(gpu.bytes_from_device, 0);
        let mem = instantiate(&mm, Variant::GpuMem, &sizes, launch);
        assert_eq!(mem.bytes_to_device, 2 * 128 * 128 * 4);
        assert_eq!(mem.bytes_from_device, 128 * 128 * 4);
    }

    #[test]
    fn generate_for_kernel_counts() {
        let mm = find_kernel("MM/matmul").unwrap(); // collapsible: 6 variants
        let budget = ParallelismBudget {
            cpu_threads: vec![4, 8],
            gpu_teams: vec![40, 80],
            gpu_threads: vec![128],
        };
        let config = GeneratorConfig::default();
        let instances = generate_for_kernel(&mm, &budget, &config);
        let n_sizes = mm.size_sweep().len();
        // 2 CPU variants * 2 CPU launches + 4 GPU variants * 2 GPU launches, per size.
        assert_eq!(instances.len(), n_sizes * (2 * 2 + 4 * 2));
    }

    #[test]
    fn full_catalogue_generates_thousands_of_unique_instances() {
        let kernels = all_kernels();
        let budget = ParallelismBudget::default();
        let instances = generate_instances(&kernels, &budget, &GeneratorConfig::fast());
        assert!(
            instances.len() > 1000,
            "expected > 1000 instances, got {}",
            instances.len()
        );
        // Instance descriptions must be unique.
        let mut keys: Vec<String> = instances.iter().map(KernelInstance::describe).collect();
        let before = keys.len();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), before, "duplicate instances generated");
    }

    #[test]
    fn fast_config_reduces_the_instance_count() {
        let kernels = vec![find_kernel("MM/matmul").unwrap()];
        let budget = ParallelismBudget::default();
        let all = generate_instances(&kernels, &budget, &GeneratorConfig::default());
        let fast = generate_instances(&kernels, &budget, &GeneratorConfig::fast());
        assert!(fast.len() < all.len());
        assert!(!fast.is_empty());
    }

    #[test]
    fn densified_config_multiplies_instance_counts() {
        let kernels = vec![find_kernel("MM/matmul").unwrap()];
        let budget = ParallelismBudget::default();
        let base = generate_instances(&kernels, &budget, &GeneratorConfig::default());
        let dense = generate_instances(
            &kernels,
            &budget,
            &GeneratorConfig {
                size_densify: 2,
                launch_densify: 2,
                ..GeneratorConfig::default()
            },
        );
        assert!(
            dense.len() > 3 * base.len(),
            "densify 2x2 must multiply counts: {} -> {}",
            base.len(),
            dense.len()
        );
        // Factor 1 is the identity, instance for instance.
        let same = generate_instances(
            &kernels,
            &budget,
            &GeneratorConfig {
                size_densify: 1,
                launch_densify: 1,
                ..GeneratorConfig::default()
            },
        );
        assert_eq!(same, base);
        // Densified instances are still unique.
        let mut keys: Vec<String> = dense.iter().map(KernelInstance::describe).collect();
        let before = keys.len();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), before, "duplicate densified instances");
    }

    #[test]
    fn cpu_only_and_gpu_only_filters() {
        let kernels = vec![find_kernel("MV/matvec").unwrap()];
        let budget = ParallelismBudget::default();
        let cpu_only = generate_instances(
            &kernels,
            &budget,
            &GeneratorConfig {
                include_gpu: false,
                ..GeneratorConfig::default()
            },
        );
        assert!(cpu_only.iter().all(|i| !i.variant.is_gpu()));
        let gpu_only = generate_instances(
            &kernels,
            &budget,
            &GeneratorConfig {
                include_cpu: false,
                ..GeneratorConfig::default()
            },
        );
        assert!(gpu_only.iter().all(|i| i.variant.is_gpu()));
    }

    #[test]
    fn body_key_is_equal_across_launches_and_differs_across_variants_and_sizes() {
        let budget = ParallelismBudget::default();
        for kernel in all_kernels() {
            let sweep = kernel.size_sweep();
            let mut size_points = vec![sweep[0].clone()];
            if sweep.len() > 1 {
                size_points.push(sweep[sweep.len() - 1].clone());
            }
            // One instance per (variant, sizes, launch), bodies outermost.
            let mut bodies: Vec<Vec<KernelInstance>> = Vec::new();
            for variant in Variant::applicable_variants(&kernel) {
                let launches = if variant.is_gpu() {
                    budget.gpu_launches()
                } else {
                    budget.cpu_launches()
                };
                for sizes in &size_points {
                    bodies.push(
                        launches
                            .iter()
                            .map(|&launch| instantiate(&kernel, variant, sizes, launch))
                            .collect(),
                    );
                }
            }
            let mut distinct = std::collections::HashSet::new();
            for members in &bodies {
                let key = members[0].body_key();
                for member in members {
                    // The pragma spells the launch once, and that is the cut.
                    // It is also the first match in the whole source, so a
                    // catalogue key, and a dataset grouped by it, does not
                    // depend on the pragma-line rule.
                    let clause = member.variant.launch_clause(member.launch);
                    assert_eq!(member.source.matches(&clause).count(), 1);
                    let cut = member.body_key();
                    assert_eq!(Some(cut.head.len()), member.source.find(&clause));
                    assert_eq!(cut.text(), member.source.replacen(&clause, "", 1));
                    assert_eq!(cut, key, "{}", member.describe());
                }
                assert!(
                    distinct.insert(key),
                    "{} shares its body key with another variant or size",
                    members[0].describe()
                );
            }
        }
    }

    /// A raw CPU instance at one team and eight threads.
    fn raw(source: &str) -> KernelInstance {
        KernelInstance {
            application: "raw".into(),
            kernel: "f".into(),
            variant: Variant::Cpu,
            sizes: HashMap::new(),
            launch: LaunchConfig {
                teams: 1,
                threads: 8,
            },
            source: source.to_string(),
            bytes_to_device: 0,
            bytes_from_device: 0,
        }
    }

    /// Asserts that `source` keys to itself at eight threads.
    fn keys_to_itself(source: &str) {
        let instance = raw(source);
        let key = instance.body_key();
        assert_eq!((key.head, key.tail), (source, None), "{source}");
        assert!(matches!(key.text(), Cow::Borrowed(text) if text == source));
    }

    #[test]
    fn only_a_pragma_line_that_spells_nothing_else_is_cut() {
        // A call in code spells the clause too; cutting it would leave the
        // GNN a different program to parse.
        keys_to_itself(
            "void f(float *a) {\n#pragma omp parallel for\n\
             for (int i = 0; i < 64; i++) { a[i] = num_threads(8); }\n}\n",
        );
        // Nor in a comment or a string literal, a pragma line commented out
        // included.
        keys_to_itself(
            "void f(float *a) {\n// num_threads(8)\n\
             /*\n#pragma omp parallel for num_threads(8)\n*/\n\
             #pragma omp parallel for\n\
             for (int i = 0; i < 64; i++) { a[i] = \"num_threads(8)\"[0]; }\n}\n",
        );
        // Nor in a pragma line that a splice pulls into a `//` comment.
        keys_to_itself(
            "void f(float *a) {\n// note \\\n#pragma omp parallel for num_threads(8)\n\
             #pragma omp parallel for\n\
             for (int i = 0; i < 64; i++) { a[i] = 0.0; }\n}\n",
        );
        // A pragma line that names another launch keeps deciding it.
        keys_to_itself(
            "void f(float *a) {\n#pragma omp parallel for num_threads(8) num_threads(4)\n\
             for (int i = 0; i < 64; i++) { a[i] = 0.0; }\n}\n",
        );
        keys_to_itself(
            "void f(float *a) {\n#pragma omp target teams distribute parallel for \
             thread_limit(64) num_threads(8)\n\
             for (int i = 0; i < 64; i++) { a[i] = 0.0; }\n}\n",
        );
        // A non-OpenMP pragma is not an OpenMP directive.
        keys_to_itself("void f() {\n#pragma unroll num_threads(8)\n}\n");
        // A comment on a pragma line is not part of the directive, whether
        // it ends the line or runs past it.
        for comment in [
            "// num_threads(8)",
            "/* num_threads(8) */",
            "/* num_threads(8)\n */",
        ] {
            keys_to_itself(&format!(
                "void f(float *a) {{\n#pragma omp parallel for {comment}\n\
                 for (int i = 0; i < 64; i++) {{ a[i] = 0.0; }}\n}}\n"
            ));
        }

        // Past comments that spell it, the directive itself is cut, spaced
        // the way the lexer accepts it.
        let with = |pragma: &str| {
            format!(
                "void f(float *a) {{\n/* num_threads(8) */ // num_threads(8)\n{pragma}\n\
                 for (int i = 0; i < 64; i++) {{ a[i] = 0.0; }}\n}}\n"
            )
        };
        let source = with("#  pragma   omp parallel for num_threads(8) schedule(static)");
        let instance = raw(&source);
        let key = instance.body_key();
        assert!(key.tail.is_some());
        assert_eq!(
            key.text(),
            with("#  pragma   omp parallel for  schedule(static)")
        );
        // A launch clause in a comment on the directive is no other launch
        // clause.
        for (pragma, body) in [
            (
                "#pragma omp parallel for num_threads(8) // num_threads(4)",
                "#pragma omp parallel for  // num_threads(4)",
            ),
            (
                "#pragma omp parallel for /* num_threads(4)\n */ num_threads(8)",
                "#pragma omp parallel for /* num_threads(4)\n */ ",
            ),
        ] {
            assert_eq!(raw(&with(pragma)).body_key().text(), with(body), "{pragma}");
        }
    }

    #[test]
    fn a_source_that_does_not_spell_its_launch_keys_to_itself() {
        keys_to_itself(
            "void f(float *a) {\n#pragma omp parallel for\n\
             for (int i = 0; i < 64; i++) { a[i] = 0.0; }\n}\n",
        );

        // A source that spells its launch is cut there; the text that
        // remains, as a source of its own, keys to itself and stays apart.
        let spelled = raw(
            "void f(float *a) {\n#pragma omp parallel for num_threads(8)\n\
             for (int i = 0; i < 64; i++) { a[i] = 0.0; }\n}\n",
        );
        let cut = spelled.body_key();
        let glued = raw(&cut.text());
        assert_eq!(glued.body_key().tail, None);
        assert_ne!(glued.body_key(), cut);
        // At another launch the same source is not cut at all.
        let other = KernelInstance {
            launch: LaunchConfig {
                teams: 1,
                threads: 16,
            },
            ..spelled.clone()
        };
        assert_eq!(other.body_key().tail, None);
    }

    #[test]
    fn describe_mentions_variant_and_sizes() {
        let mm = find_kernel("MM/matmul").unwrap();
        let inst = instantiate(
            &mm,
            Variant::GpuCollapse,
            &mm.default_sizes(),
            LaunchConfig {
                teams: 80,
                threads: 128,
            },
        );
        let d = inst.describe();
        assert!(d.contains("gpu_collapse"));
        assert!(d.contains("N="));
        assert!(d.contains("teams=80"));
    }
}
