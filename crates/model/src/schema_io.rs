//! Schema ⇄ JSON conversion for release artifacts.
//!
//! A schema serializes to an array of attribute objects. Each carries its
//! name, a kind tag (`binary` / `categorical` / `continuous`), enough
//! parameters to rebuild the domain (labels, bin range), and the taxonomy
//! tree's parent maps when one is attached — everything a consumer needs to
//! interpret synthetic data sampled from the released model.

use privbayes_data::{Attribute, AttributeKind, Schema, TaxonomyTree};

use crate::error::ModelError;
use crate::json::Json;

/// Serializes a schema to its JSON array form.
#[must_use]
pub fn schema_to_json(schema: &Schema) -> Json {
    Json::Array(schema.attributes().iter().map(attribute_to_json).collect())
}

/// Rebuilds a schema from its JSON array form.
///
/// # Errors
/// Returns [`ModelError::Field`] for missing/mistyped fields and
/// [`ModelError::Invalid`] when the fields parse but violate domain rules
/// (empty domains, bad taxonomy maps, duplicate names).
pub fn schema_from_json(json: &Json) -> Result<Schema, ModelError> {
    let items = json.as_array().ok_or_else(|| ModelError::Field("schema".into()))?;
    let mut attributes = Vec::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        attributes.push(attribute_from_json(item, i)?);
    }
    Schema::new(attributes).map_err(|e| ModelError::Invalid(format!("schema: {e}")))
}

fn attribute_to_json(attr: &Attribute) -> Json {
    let mut fields: Vec<(String, Json)> =
        vec![("name".to_string(), Json::String(attr.name().to_string()))];
    match attr.kind() {
        AttributeKind::Binary => {
            fields.push(("kind".to_string(), Json::String("binary".to_string())));
        }
        AttributeKind::Categorical => {
            fields.push(("kind".to_string(), Json::String("categorical".to_string())));
            fields.push(("size".to_string(), Json::from_usize(attr.domain_size())));
            if let Some(labels) = attr.domain().labels() {
                fields.push((
                    "labels".to_string(),
                    Json::Array(labels.iter().map(|l| Json::String(l.clone())).collect()),
                ));
            }
        }
        AttributeKind::Continuous { min, max } => {
            fields.push(("kind".to_string(), Json::String("continuous".to_string())));
            fields.push(("min".to_string(), Json::Number(*min)));
            fields.push(("max".to_string(), Json::Number(*max)));
            fields.push(("bins".to_string(), Json::from_usize(attr.domain_size())));
        }
    }
    if let Some(tree) = attr.taxonomy() {
        fields.push(("taxonomy".to_string(), taxonomy_to_json(tree)));
    }
    Json::Object(fields)
}

fn attribute_from_json(json: &Json, index: usize) -> Result<Attribute, ModelError> {
    let path = |field: &str| ModelError::Field(format!("schema[{index}].{field}"));
    let name = json.get("name").and_then(Json::as_str).ok_or_else(|| path("name"))?;
    let kind = json.get("kind").and_then(Json::as_str).ok_or_else(|| path("kind"))?;
    let attr = match kind {
        "binary" => Attribute::binary(name),
        "categorical" => {
            let size = json.get("size").and_then(Json::as_usize).ok_or_else(|| path("size"))?;
            match json.get("labels") {
                None => Attribute::categorical(name, size)
                    .map_err(|e| ModelError::Invalid(format!("schema[{index}]: {e}")))?,
                Some(labels) => {
                    let items = labels.as_array().ok_or_else(|| path("labels"))?;
                    let labels: Vec<&str> = items
                        .iter()
                        .map(|l| l.as_str().ok_or_else(|| path("labels[*]")))
                        .collect::<Result<_, _>>()?;
                    if labels.len() != size {
                        return Err(ModelError::Invalid(format!(
                            "schema[{index}]: {} labels for domain size {size}",
                            labels.len()
                        )));
                    }
                    Attribute::categorical_labelled(name, labels)
                        .map_err(|e| ModelError::Invalid(format!("schema[{index}]: {e}")))?
                }
            }
        }
        "continuous" => {
            let min = json.get("min").and_then(Json::as_f64).ok_or_else(|| path("min"))?;
            let max = json.get("max").and_then(Json::as_f64).ok_or_else(|| path("max"))?;
            let bins = json.get("bins").and_then(Json::as_usize).ok_or_else(|| path("bins"))?;
            Attribute::continuous(name, min, max, bins)
                .map_err(|e| ModelError::Invalid(format!("schema[{index}]: {e}")))?
        }
        other => {
            return Err(ModelError::Invalid(format!(
                "schema[{index}]: unknown attribute kind `{other}`"
            )))
        }
    };
    match json.get("taxonomy") {
        None => Ok(attr),
        Some(tree) => {
            let tree = taxonomy_from_json(tree, index)?;
            attr.with_taxonomy(tree)
                .map_err(|e| ModelError::Invalid(format!("schema[{index}]: {e}")))
        }
    }
}

/// Serializes a taxonomy as its leaf count plus per-level parent maps.
fn taxonomy_to_json(tree: &TaxonomyTree) -> Json {
    // Reconstruct parent maps from the public leaf→level lookups: node `c`
    // at level `l` has the parent shared by all of its leaves at level `l+1`.
    let mut maps: Vec<Json> = Vec::with_capacity(tree.height().saturating_sub(1));
    for level in 0..tree.height() - 1 {
        let mut map = vec![0u32; tree.level_size(level)];
        let fine = tree.level_lookup(level);
        let coarse = tree.level_lookup(level + 1);
        for (leaf, &node) in fine.iter().enumerate() {
            map[node as usize] = coarse[leaf];
        }
        maps.push(Json::Array(map.into_iter().map(|p| Json::from_usize(p as usize)).collect()));
    }
    Json::object(vec![
        ("leaf_count", Json::from_usize(tree.leaf_count())),
        ("parent_maps", Json::Array(maps)),
    ])
}

fn taxonomy_from_json(json: &Json, index: usize) -> Result<TaxonomyTree, ModelError> {
    let path = |field: &str| ModelError::Field(format!("schema[{index}].taxonomy.{field}"));
    let leaf_count =
        json.get("leaf_count").and_then(Json::as_usize).ok_or_else(|| path("leaf_count"))?;
    let maps_json =
        json.get("parent_maps").and_then(Json::as_array).ok_or_else(|| path("parent_maps"))?;
    let mut maps = Vec::with_capacity(maps_json.len());
    for level in maps_json {
        let entries = level.as_array().ok_or_else(|| path("parent_maps[*]"))?;
        let map: Vec<u32> = entries
            .iter()
            .map(|e| {
                e.as_usize()
                    .and_then(|v| u32::try_from(v).ok())
                    .ok_or_else(|| path("parent_maps[*][*]"))
            })
            .collect::<Result<_, _>>()?;
        maps.push(map);
    }
    TaxonomyTree::from_parent_maps(leaf_count, maps)
        .map_err(|e| ModelError::Invalid(format!("schema[{index}]: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mixed_schema() -> Schema {
        let workclass = Attribute::categorical_labelled(
            "workclass",
            [
                "self-emp-inc",
                "self-emp-not-inc",
                "federal-gov",
                "state-gov",
                "local-gov",
                "private",
                "without-pay",
                "never-worked",
            ],
        )
        .unwrap()
        .with_taxonomy(
            TaxonomyTree::from_groups(8, &[vec![0, 1], vec![2, 3, 4], vec![5], vec![6, 7]])
                .unwrap(),
        )
        .unwrap();
        let age = Attribute::continuous("age", 0.0, 80.0, 16)
            .unwrap()
            .with_taxonomy(TaxonomyTree::balanced_binary(16).unwrap())
            .unwrap();
        Schema::new(vec![
            Attribute::binary("retired"),
            age,
            workclass,
            Attribute::categorical("zip", 100).unwrap(),
        ])
        .unwrap()
    }

    #[test]
    fn round_trips_a_mixed_schema() {
        let schema = mixed_schema();
        let json = schema_to_json(&schema);
        let back = schema_from_json(&json).unwrap();
        assert_eq!(back, schema);
    }

    #[test]
    fn round_trips_through_text() {
        let schema = mixed_schema();
        let text = schema_to_json(&schema).to_string_pretty().unwrap();
        let back = schema_from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, schema);
    }

    #[test]
    fn taxonomy_parent_maps_match_original_generalisation() {
        let tree = TaxonomyTree::balanced_binary(16).unwrap();
        let json = taxonomy_to_json(&tree);
        let back = taxonomy_from_json(&json, 0).unwrap();
        assert_eq!(back, tree);
    }

    #[test]
    fn missing_fields_name_their_path() {
        let json = Json::parse(r#"[{"kind": "binary"}]"#).unwrap();
        let e = schema_from_json(&json).unwrap_err();
        assert_eq!(e, ModelError::Field("schema[0].name".into()));

        let json = Json::parse(r#"[{"name": "a", "kind": "categorical"}]"#).unwrap();
        let e = schema_from_json(&json).unwrap_err();
        assert_eq!(e, ModelError::Field("schema[0].size".into()));

        let json = Json::parse(r#"[{"name": "a", "kind": "continuous", "min": 0}]"#).unwrap();
        let e = schema_from_json(&json).unwrap_err();
        assert_eq!(e, ModelError::Field("schema[0].max".into()));
    }

    #[test]
    fn rejects_unknown_kind_and_bad_values() {
        let json = Json::parse(r#"[{"name": "a", "kind": "quantum"}]"#).unwrap();
        assert!(matches!(schema_from_json(&json), Err(ModelError::Invalid(_))));

        // Label count disagrees with declared size.
        let json = Json::parse(
            r#"[{"name": "a", "kind": "categorical", "size": 3, "labels": ["x", "y"]}]"#,
        )
        .unwrap();
        assert!(matches!(schema_from_json(&json), Err(ModelError::Invalid(_))));

        // Continuous with inverted range.
        let json =
            Json::parse(r#"[{"name": "a", "kind": "continuous", "min": 5, "max": 1, "bins": 4}]"#)
                .unwrap();
        assert!(matches!(schema_from_json(&json), Err(ModelError::Invalid(_))));
    }

    #[test]
    fn rejects_corrupt_taxonomy() {
        let json = Json::parse(
            r#"[{"name": "a", "kind": "categorical", "size": 4,
                 "taxonomy": {"leaf_count": 4, "parent_maps": [[0, 1, 2, 3]]}}]"#,
        )
        .unwrap();
        // Identity parent map is not coarser — the data crate rejects it.
        assert!(matches!(schema_from_json(&json), Err(ModelError::Invalid(_))));
    }

    #[test]
    fn rejects_parent_map_entries_above_u32_max() {
        // 4294967297 would wrap to 1 and load as the valid map [0, 0, 1, 1].
        let json = Json::parse(
            r#"[{"name": "a", "kind": "categorical", "size": 4,
                 "taxonomy": {"leaf_count": 4, "parent_maps": [[0, 0, 1, 4294967297]]}}]"#,
        )
        .unwrap();
        assert_eq!(
            schema_from_json(&json).unwrap_err(),
            ModelError::Field("schema[0].taxonomy.parent_maps[*][*]".into())
        );
    }

    #[test]
    fn rejects_duplicate_attribute_names() {
        let json =
            Json::parse(r#"[{"name": "a", "kind": "binary"}, {"name": "a", "kind": "binary"}]"#)
                .unwrap();
        assert!(matches!(schema_from_json(&json), Err(ModelError::Invalid(_))));
    }

    #[test]
    fn rejects_names_and_labels_a_csv_cell_cannot_carry() {
        // Written unquoted, `New York, NY` would read back as two cells and
        // an empty label as a blank line.
        for attribute in [
            r#"{"name": "city", "kind": "categorical", "size": 2, "labels": ["New York, NY", "x"]}"#,
            r#"{"name": "city", "kind": "categorical", "size": 2, "labels": ["x", "two\nlines"]}"#,
            r#"{"name": "city", "kind": "categorical", "size": 2, "labels": ["", "x"]}"#,
            r#"{"name": "a,b", "kind": "binary"}"#,
            r#"{"name": "a\r", "kind": "binary"}"#,
        ] {
            let json = Json::parse(&format!("[{attribute}]")).unwrap();
            let refused = schema_from_json(&json);
            assert!(matches!(refused, Err(ModelError::Invalid(_))), "{attribute}: {refused:?}");
        }
    }

    #[test]
    fn unlabelled_domains_stay_unlabelled() {
        let schema = Schema::new(vec![Attribute::categorical("zip", 10).unwrap()]).unwrap();
        let back = schema_from_json(&schema_to_json(&schema)).unwrap();
        assert!(back.attribute(0).domain().labels().is_none());
    }
}
